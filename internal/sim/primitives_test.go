package sim

import (
	"testing"

	"topoctl/internal/graph"
)

// starWorld: center 0 with 3 leaves, plus a 2-hop tail 3-4.
func starWorld() *graph.Graph {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(3, 4, 1)
	return g
}

// sizes counts each center's cluster from center: the size function
// Network.Trees takes.
func sizes(center []int) func(head int) int {
	return func(h int) int {
		n := 0
		for _, c := range center {
			if c == h {
				n++
			}
		}
		return n
	}
}

func TestConvergecastExactCosts(t *testing.T) {
	g := starWorld()
	nw := NewNetwork(g)
	// Everyone assigned to center 0: members 1,2,3 at 1 hop, 4 at 2 hops.
	center := []int{0, 0, 0, 0, 0}
	nw.Convergecast("cc", nw.Trees([]int{0}, center, sizes(center)), 3)
	if nw.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", nw.Rounds())
	}
	// Messages: 1+1+1+2 = 5 hops; words = 5*3.
	if nw.Messages() != 5 {
		t.Errorf("messages = %d, want 5", nw.Messages())
	}
	if nw.Words() != 15 {
		t.Errorf("words = %d, want 15", nw.Words())
	}
}

func TestBroadcastMirrorsConvergecast(t *testing.T) {
	g := starWorld()
	a := NewNetwork(g)
	b := NewNetwork(g)
	center := []int{0, 0, 0, 0, 0}
	a.Convergecast("x", a.Trees([]int{0}, center, sizes(center)), 1)
	b.Broadcast("x", b.Trees([]int{0}, center, sizes(center)), 1)
	if a.Messages() != b.Messages() || a.Rounds() != b.Rounds() {
		t.Errorf("asymmetric costs: %s vs %s", a, b)
	}
}

func TestConvergecastMultipleCenters(t *testing.T) {
	g := starWorld()
	nw := NewNetwork(g)
	// Two clusters: {0,1,2} centered at 0, {3,4} centered at 3.
	center := []int{0, 0, 0, 3, 3}
	nw.Convergecast("cc", nw.Trees([]int{0, 3}, center, sizes(center)), 1)
	// Members: 1,2 at 1 hop of 0; 4 at 1 hop of 3 → 3 messages.
	if nw.Messages() != 3 {
		t.Errorf("messages = %d, want 3", nw.Messages())
	}
	if nw.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", nw.Rounds())
	}
}

// TestTreesSharedAcrossFlows: the three tree flows of a phase charge one
// measurement, each flow its own words, and trees with no head still take
// one round.
func TestTreesSharedAcrossFlows(t *testing.T) {
	g := starWorld()
	nw := NewNetwork(g)
	center := []int{0, 0, 0, 3, 3}
	tr := nw.Trees([]int{0, 3}, center, sizes(center))
	nw.Convergecast("attach", tr, 2)
	nw.Convergecast("assemble", tr, 3)
	nw.Broadcast("distribute", tr, 3)
	if nw.Rounds() != 3 || nw.Messages() != 9 || nw.Words() != 24 {
		t.Errorf("three flows over 3 member hops: %s, want rounds=3 messages=9 words=24", nw)
	}
	if c := nw.PerStep()["assemble"]; *c != (StepCost{Rounds: 1, Messages: 3, Words: 9}) {
		t.Errorf("assemble: %+v", *c)
	}
	single := NewNetwork(g)
	single.Broadcast("b", single.Trees(nil, []int{0, 1, 2, 3, 4}, sizes(nil)), 5)
	if single.Rounds() != 1 || single.Messages() != 0 {
		t.Errorf("headless trees: %s, want rounds=1 messages=0", single)
	}
}

// TestTreesMeasureDepth: the depth is the farthest member's hop distance,
// whichever cluster it is in, found by one hop walk per head.
func TestTreesMeasureDepth(t *testing.T) {
	g := starWorld()
	for _, tc := range []struct {
		heads, center []int
		depth         int
		hops          int64
	}{
		{[]int{0}, []int{0, 0, 0, 0, 0}, 2, 5},    // 4 is two hops out
		{[]int{0}, []int{0, 0, 0, 3, 4}, 1, 2},    // 1 and 2, one hop each
		{[]int{0, 4}, []int{0, 0, 4, 3, 4}, 3, 4}, // 2 is three hops from 4
	} {
		nw := NewNetwork(g)
		tr := nw.Trees(tc.heads, tc.center, sizes(tc.center))
		if tr.Depth() != tc.depth || tr.hops != tc.hops {
			t.Errorf("heads %v, centers %v: depth %d, hops %d; want %d, %d",
				tc.heads, tc.center, tr.Depth(), tr.hops, tc.depth, tc.hops)
		}
		if nw.search.Stats().Searches != int64(len(tc.heads)) {
			t.Errorf("heads %v: %d walks", tc.heads, nw.search.Stats().Searches)
		}
	}
}

func TestDerivedMISRound(t *testing.T) {
	nw := NewNetwork(starWorld())
	nw.DerivedMISRound("mis", 10, 3)
	if nw.Rounds() != 3 || nw.Messages() != 30 {
		t.Errorf("costs = %s", nw)
	}
	nw.DerivedMISRound("mis", 10, 0) // hop clamped to 1
	if nw.Rounds() != 4 {
		t.Errorf("hop clamp broken: rounds = %d", nw.Rounds())
	}
}
