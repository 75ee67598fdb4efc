package sim

import (
	"fmt"
	"maps"
	"testing"

	"topoctl/internal/graph"
)

// lineGraph returns a path 0-1-2-...-(n-1) with unit weights.
func lineGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestGatherDepthSemantics(t *testing.T) {
	g := lineGraph(7)
	nw := NewNetwork(g)
	nw.Gather("test", 2)
	// Node 3 must know exactly {1,2,3,4,5} after 2 rounds.
	v := nw.View(3, 2)
	if v.Root != 3 || v.Depth != 2 {
		t.Fatalf("view of (%d, depth %d), want (3, depth 2)", v.Root, v.Depth)
	}
	want := map[int]int{1: 2, 2: 1, 3: 0, 4: 1, 5: 2}
	if len(v.Hops) != len(want) {
		t.Fatalf("view size %d, want %d: %v", len(v.Hops), len(want), v.Hops)
	}
	for x, h := range want {
		if v.Hops[x] != h {
			t.Errorf("hop[%d] = %d, want %d", x, v.Hops[x], h)
		}
	}
	if !v.Knows(4) || v.Knows(6) {
		t.Error("Knows semantics wrong")
	}
}

func TestGatherRoundsCharged(t *testing.T) {
	g := lineGraph(5)
	nw := NewNetwork(g)
	nw.Gather("a", 3)
	if nw.Rounds() != 3 {
		t.Errorf("rounds = %d, want 3", nw.Rounds())
	}
	nw.Gather("b", 2)
	if nw.Rounds() != 5 {
		t.Errorf("rounds = %d, want 5", nw.Rounds())
	}
	if nw.PerStep()["a"].Rounds != 3 || nw.PerStep()["b"].Rounds != 2 {
		t.Error("per-step round attribution wrong")
	}
}

// TestGatherMessageAccounting checks the flooding cost formula on a graph
// small enough to count by hand: a triangle, k=1. Each node's record is
// forwarded only by the origin itself (hop <= 0), to deg(origin) = 2
// neighbors: 6 messages total, each carrying deg+1 = 3 words.
func TestGatherMessageAccounting(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	nw := NewNetwork(g)
	nw.Gather("t", 1)
	if nw.Messages() != 6 {
		t.Errorf("messages = %d, want 6", nw.Messages())
	}
	if nw.Words() != 18 {
		t.Errorf("words = %d, want 18", nw.Words())
	}
}

// TestGatherMessageAccountingDepth2 extends the hand count: on a path
// 0-1-2, k=2. Records: 0's record forwarded by 0 (deg 1) and by 1 (deg 2,
// hop 1): 3 messages; symmetric for 2's record: 3; 1's record forwarded by
// all three nodes (hops 0,1,1): deg sum = 1+2+1 = 4 messages. Total 10.
func TestGatherMessageAccountingDepth2(t *testing.T) {
	g := lineGraph(3)
	nw := NewNetwork(g)
	nw.Gather("t", 2)
	if nw.Messages() != 10 {
		t.Errorf("messages = %d, want 10", nw.Messages())
	}
}

func TestSubgraphRestriction(t *testing.T) {
	g := lineGraph(6)
	nw := NewNetwork(g)
	sub := nw.View(0, 2).Subgraph(g)
	// View of 0 at depth 2 knows {0,1,2}; edges 0-1, 1-2 present, 2-3 not.
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Error("expected edges missing from view subgraph")
	}
	if sub.HasEdge(2, 3) {
		t.Error("edge outside view present in subgraph")
	}
	if sub.N() != g.N() {
		t.Error("subgraph should keep the global vertex numbering")
	}
}

func TestChargeAccumulates(t *testing.T) {
	nw := NewNetwork(lineGraph(3))
	nw.Charge("x", 2, 10, 20)
	nw.Charge("x", 1, 5, 10)
	nw.Charge("y", 1, 1, 1)
	if nw.Rounds() != 4 || nw.Messages() != 16 || nw.Words() != 31 {
		t.Errorf("totals wrong: %s", nw)
	}
	x := nw.PerStep()["x"]
	if x.Rounds != 3 || x.Messages != 15 || x.Words != 30 {
		t.Errorf("per-step wrong: %+v", x)
	}
}

func TestNeighborExchange(t *testing.T) {
	g := lineGraph(4) // 3 edges
	nw := NewNetwork(g)
	nw.NeighborExchange("ex", 2)
	if nw.Rounds() != 1 {
		t.Errorf("rounds = %d", nw.Rounds())
	}
	if nw.Messages() != 6 { // one per directed edge
		t.Errorf("messages = %d, want 6", nw.Messages())
	}
	if nw.Words() != 12 {
		t.Errorf("words = %d, want 12", nw.Words())
	}
}

// refHops is an independent map-based BFS to depth k.
func refHops(g *graph.Graph, src, k int) map[int]int {
	hops := map[int]int{src: 0}
	frontier := []int{src}
	for depth := 0; depth < k && len(frontier) > 0; depth++ {
		var next []int
		for _, u := range frontier {
			for _, h := range g.Neighbors(u) {
				if _, seen := hops[h.To]; !seen {
					hops[h.To] = depth + 1
					next = append(next, h.To)
				}
			}
		}
		frontier = next
	}
	return hops
}

func TestGatherViewContainsBall(t *testing.T) {
	// On a random-ish graph every view must exactly equal the BFS ball.
	g := graph.New(10)
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {2, 6}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1], 1)
	}
	nw := NewNetwork(g)
	for k := 1; k <= 4; k++ {
		nw.Gather("t", k)
		for v := 0; v < g.N(); v++ {
			if got, want := nw.View(v, k).Hops, refHops(g, v, k); !maps.Equal(got, want) {
				t.Fatalf("k=%d v=%d: view %v, want %v", k, v, got, want)
			}
		}
	}
}

// TestGatherDepthOneChargesOnlyOrigins: Gather(step, 1) relays each record
// from its origin alone (the depth-0 inner ball), and a depth below 1 is
// charged as depth 1 — never as an unbounded flood.
func TestGatherDepthOneChargesOnlyOrigins(t *testing.T) {
	g := lineGraph(4) // degrees 1,2,2,1
	for _, k := range []int{1, 0, -1} {
		nw := NewNetwork(g)
		nw.Gather("t", k)
		// Messages Σ deg = 6; words Σ deg·(deg+1) = 2+6+6+2 = 16.
		if nw.Rounds() != 1 || nw.Messages() != 6 || nw.Words() != 16 {
			t.Errorf("Gather(%d): %s, want rounds=1 messages=6 words=16", k, nw)
		}
	}
}

// TestGatherRepeatCharges: a network works out a depth's flood once, so a
// repeated Gather(k) must charge exactly what the first did, add it to the
// totals and to its step again, and leave other depths' charges apart.
func TestGatherRepeatCharges(t *testing.T) {
	g := graph.New(10)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {2, 6}} {
		g.AddEdge(e[0], e[1], 1)
	}
	nw := NewNetwork(g)
	for _, k := range []int{1, 2, 3} {
		fresh := NewNetwork(g)
		fresh.Gather("g", k)
		first := *fresh.PerStep()["g"]
		step := fmt.Sprint("k=", k)
		for rep := 1; rep <= 3; rep++ {
			before := StepCost{Rounds: nw.Rounds(), Messages: nw.Messages(), Words: nw.Words()}
			nw.Gather(step, k)
			after := StepCost{Rounds: nw.Rounds(), Messages: nw.Messages(), Words: nw.Words()}
			if d := (StepCost{after.Rounds - before.Rounds, after.Messages - before.Messages, after.Words - before.Words}); d != first {
				t.Fatalf("Gather(%d) #%d charged %+v, first %+v", k, rep, d, first)
			}
			want := StepCost{first.Rounds * rep, first.Messages * int64(rep), first.Words * int64(rep)}
			if got := *nw.PerStep()[step]; got != want {
				t.Fatalf("Gather(%d) #%d: step total %+v, want %+v", k, rep, got, want)
			}
		}
	}
}

func TestStringFormat(t *testing.T) {
	nw := NewNetwork(lineGraph(2))
	nw.Charge("s", 1, 2, 3)
	if got := nw.String(); got != "rounds=1 messages=2 words=3" {
		t.Errorf("String = %q", got)
	}
}
