package graph_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"topoctl/internal/graph"
)

// bruteForceMSTWeight enumerates all spanning trees of small connected
// graphs via edge subsets — the reference for Kruskal.
func bruteForceMSTWeight(g *graph.Graph) float64 {
	edges := g.Edges()
	n := g.N()
	best := math.Inf(1)
	// Choose n-1 edges out of m; m is tiny in tests.
	var rec func(start int, chosen []graph.Edge)
	rec = func(start int, chosen []graph.Edge) {
		if len(chosen) == n-1 {
			uf := graph.NewUnionFind(n)
			var w float64
			for _, e := range chosen {
				uf.Union(e.U, e.V)
				w += e.W
			}
			if uf.Count() == 1 && w < best {
				best = w
			}
			return
		}
		for i := start; i < len(edges); i++ {
			rec(i+1, append(chosen, edges[i]))
		}
	}
	rec(0, nil)
	return best
}

func TestMSTMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	f := func(seed uint8) bool {
		n := 3 + int(seed)%5
		g := graph.New(n)
		// Guarantee connectivity with a random spanning path, then add
		// extra random edges.
		perm := rng.Perm(n)
		for i := 0; i+1 < n; i++ {
			g.AddEdge(perm[i], perm[i+1], 0.1+rng.Float64())
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !g.HasEdge(u, v) && rng.Float64() < 0.4 {
					g.AddEdge(u, v, 0.1+rng.Float64())
				}
			}
		}
		want := bruteForceMSTWeight(g)
		got := g.MSTWeight()
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMSTIsSpanningForest(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 25, 0.15)
		mst := g.MST()
		forest := graph.FromEdges(g.N(), mst)
		if len(forest.Components()) != len(g.Components()) {
			t.Fatalf("MST component count %d != graph %d", len(forest.Components()), len(g.Components()))
		}
		// Acyclic: edges = n - #components.
		if len(mst) != g.N()-len(g.Components()) {
			t.Fatalf("MST edge count %d, want %d", len(mst), g.N()-len(g.Components()))
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := graph.NewUnionFind(5)
	if uf.Count() != 5 {
		t.Errorf("Count = %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Error("Union of disjoint sets returned false")
	}
	if uf.Union(0, 2) {
		t.Error("Union of joined sets returned true")
	}
	if uf.Count() != 3 {
		t.Errorf("Count after unions = %d", uf.Count())
	}
}

func TestComponents(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || len(comps[1]) != 3 || len(comps[2]) != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	if comps[2][0] != 5 {
		t.Errorf("isolated vertex misplaced: %v", comps)
	}
}

func TestConnected(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(1, 2, 1)
	if !g.Connected() {
		t.Error("connected graph reported disconnected")
	}
	if !graph.New(1).Connected() || !graph.New(0).Connected() {
		t.Error("trivial graphs should be connected")
	}
}

func TestMSTDeterministicUnderTies(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	a := g.MST()
	b := g.MST()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("MST sizes: %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MST not deterministic under ties")
		}
	}
}
