package labels

import (
	"math"
	"math/rand"
	"testing"

	"topoctl/internal/graph"
	"topoctl/internal/graph/graphtest"
)

// pathGraph returns 0-1-2-...-(n-1) with unit weights.
func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestPathGraphExact(t *testing.T) {
	g := pathGraph(6)
	o := Build(g, Options{})
	for s := 0; s < 6; s++ {
		for u := 0; u < 6; u++ {
			d, ok := o.Query(s, u)
			if !ok {
				t.Fatalf("Query(%d,%d): fresh oracle declined", s, u)
			}
			if want := math.Abs(float64(s - u)); d != want {
				t.Fatalf("Query(%d,%d) = %v, want %v", s, u, d, want)
			}
		}
	}
}

func TestDisconnectedIsInf(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(2, 3, 3)
	o := Build(g, Options{})
	if d, ok := o.Query(0, 3); !ok || d != graph.Inf {
		t.Fatalf("Query(0,3) = %v, %v; want +Inf certified", d, ok)
	}
	if d, ok := o.Query(2, 3); !ok || d != 3 {
		t.Fatalf("Query(2,3) = %v, %v; want 3 certified", d, ok)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	o := Build(graph.New(0), Options{})
	if st := o.Stats(); st.Vertices != 0 || st.Entries != 0 {
		t.Fatalf("empty oracle stats = %+v", st)
	}
	o = Build(graph.New(1), Options{})
	if d, ok := o.Query(0, 0); !ok || d != 0 {
		t.Fatalf("Query(0,0) = %v, %v; want 0 certified", d, ok)
	}
}

// randomGraph builds an n-vertex graph where each pair gets an edge with
// probability p and a weight in (0.1, 1.1).
func randomGraph(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
		}
	}
	return g
}

// TestUpdateAnyChangeGoesStale pins the maintenance contract: an oracle
// is exact for the graph Build ran on and nothing else, so every commit
// that changes the graph — additions included — yields a successor that
// declines, while the receiver keeps answering exactly for its own graph.
func TestUpdateAnyChangeGoesStale(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(g *graph.Graph) (touched []int)
	}{
		{"additions", func(g *graph.Graph) []int {
			g.AddEdge(0, 7, 1)
			g.AddEdge(2, 5, 0.5)
			return []int{0, 7, 2, 5}
		}},
		{"growth", func(g *graph.Graph) []int {
			g.Grow(g.N() + 1)
			return nil
		}},
		{"removal", func(g *graph.Graph) []int {
			g.RemoveEdge(3, 4)
			return []int{3, 4}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := pathGraph(8)
			o := Build(g, Options{})
			g2 := g.Clone()
			o2 := o.Update(g2, tc.mutate(g2))
			if _, ok := o2.Query(0, 7); ok {
				t.Fatal("successor certified a distance for a changed graph")
			}
			if st := o2.Stats(); !st.Stale || st.StaleCommits != 1 {
				t.Fatalf("successor stats = %+v, want stale after one commit", st)
			}
			for s := 0; s < g.N(); s++ {
				dist := graphtest.Dijkstra(g, s)
				for u := 0; u < g.N(); u++ {
					d, ok := o.Query(s, u)
					ref := dist[u]
					if !ok || d != ref {
						t.Fatalf("receiver Query(%d,%d) = %v, %v; want %v certified", s, u, d, ok, ref)
					}
				}
			}
		})
	}
}

func TestUpdateRemovalGoesStaleThenRebuilds(t *testing.T) {
	g := pathGraph(8)
	o := Build(g, Options{rebuildAfter: 3})

	g = g.Clone()
	g.RemoveEdge(3, 4)
	o2 := o.Update(g, []int{3, 4})
	if _, ok := o2.Query(0, 7); ok {
		t.Fatal("oracle certified a distance after a removal")
	}
	if _, ok := o.Query(0, 7); !ok {
		t.Fatal("Update mutated its receiver: predecessor oracle went stale")
	}

	// Two more commits reach rebuildAfter and trigger a rebuild that
	// reflects the removal exactly.
	g = g.Clone()
	g.AddEdge(0, 2, 1)
	o3 := o2.Update(g, []int{0, 2})
	if _, ok := o3.Query(0, 7); ok {
		t.Fatal("stale oracle certified before rebuildAfter commits")
	}
	g = g.Clone()
	g.AddEdge(5, 7, 1)
	o4 := o3.Update(g, []int{5, 7})
	if d, ok := o4.Query(0, 7); !ok || d != graph.Inf {
		t.Fatalf("rebuilt oracle Query(0,7) = %v, %v; want +Inf certified", d, ok)
	}
	if d, ok := o4.Query(0, 3); !ok || d != 2 {
		t.Fatalf("rebuilt oracle Query(0,3) = %v, %v; want 2 (via 0-2 shortcut)", d, ok)
	}
}

func TestUpdateEmptyTouchedIsIdentity(t *testing.T) {
	g := pathGraph(8)
	o := Build(g, Options{})
	if o2 := o.Update(g, nil); o2 != o {
		t.Fatal("Update with no touched rows should return the same oracle")
	}
}

// TestQueryZeroAlloc pins the acceptance criterion: the label hit path
// performs zero allocations.
func TestQueryZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 64, 0.08)
	o := Build(g, Options{})

	queries := make([][2]int, 64)
	for i := range queries {
		queries[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
	}
	var sink float64
	if avg := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			d, _ := o.Query(q[0], q[1])
			sink += d
		}
	}); avg != 0 {
		t.Fatalf("Query allocates: %v allocs/run", avg)
	}
	_ = sink
}

func TestStats(t *testing.T) {
	g := pathGraph(16)
	o := Build(g, Options{})
	st := o.Stats()
	if st.Vertices != 16 {
		t.Fatalf("Vertices = %d, want 16", st.Vertices)
	}
	if st.Entries < 16 {
		t.Fatalf("Entries = %d; every vertex labels at least itself", st.Entries)
	}
	if st.MaxLabel < 1 || st.BytesPerVertex <= 0 {
		t.Fatalf("implausible stats %+v", st)
	}
	if st.Stale || st.StaleCommits != 0 {
		t.Fatalf("fresh oracle should be clean: %+v", st)
	}
}
