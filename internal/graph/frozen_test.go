package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// frozenRandGraph builds a random simple graph on n vertices with roughly the
// requested number of edges.
func frozenRandGraph(rng *rand.Rand, n, edges int) *Graph {
	g := New(n)
	for tries := 0; g.M() < edges && tries < 20*edges; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v, 0.1+rng.Float64())
	}
	return g
}

// edgeSet renders a topology's edge set canonically for comparison.
func edgeSet(t Topology) string {
	es := t.EdgesUnordered()
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = fmt.Sprintf("%d-%d:%.12f", e.U, e.V, e.W)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// requireSameTopology checks that f and g agree on every Topology method.
func requireSameTopology(t *testing.T, f *Frozen, g *Graph) {
	t.Helper()
	if f.N() != g.N() || f.M() != g.M() {
		t.Fatalf("size mismatch: frozen %d/%d, graph %d/%d", f.N(), f.M(), g.N(), g.M())
	}
	if f.MaxDegree() != g.MaxDegree() {
		t.Fatalf("max degree %d != %d", f.MaxDegree(), g.MaxDegree())
	}
	if w1, w2 := f.TotalWeight(), g.TotalWeight(); w1 != w2 {
		t.Fatalf("total weight %v != %v", w1, w2)
	}
	for u := 0; u < g.N(); u++ {
		if f.Degree(u) != g.Degree(u) {
			t.Fatalf("degree(%d) %d != %d", u, f.Degree(u), g.Degree(u))
		}
		for _, h := range g.Neighbors(u) {
			if !f.HasEdge(u, h.To) {
				t.Fatalf("frozen lost edge {%d,%d}", u, h.To)
			}
			if w, ok := f.EdgeWeight(u, h.To); !ok || w != h.W {
				t.Fatalf("edge weight {%d,%d}: %v/%v, want %v", u, h.To, w, ok, h.W)
			}
		}
	}
	if edgeSet(f) != edgeSet(g) {
		t.Fatalf("edge sets differ:\n frozen %s\n graph  %s", edgeSet(f), edgeSet(g))
	}
}

func TestFreezeMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := frozenRandGraph(rng, n, rng.Intn(3*n))
		requireSameTopology(t, Freeze(g), g)
	}
}

func TestFreezeDegenerate(t *testing.T) {
	// Empty graph.
	f := Freeze(New(0))
	if f.N() != 0 || f.M() != 0 || f.MaxDegree() != 0 || f.TotalWeight() != 0 {
		t.Fatalf("empty freeze: %d/%d", f.N(), f.M())
	}
	if len(f.EdgesUnordered()) != 0 {
		t.Fatal("empty freeze has edges")
	}

	// Single vertex.
	f = Freeze(New(1))
	if f.N() != 1 || f.Degree(0) != 0 || len(f.Neighbors(0)) != 0 {
		t.Fatalf("single-vertex freeze: n=%d deg=%d", f.N(), f.Degree(0))
	}
	if f.HasEdge(0, 0) {
		t.Fatal("phantom self-edge")
	}

	// Post-Grow: frozen view includes the grown, isolated range.
	g := New(2)
	g.AddEdge(0, 1, 1.5)
	g.Grow(6)
	g.AddEdge(4, 5, 2.5)
	f = Freeze(g)
	requireSameTopology(t, f, g)
	if f.Degree(3) != 0 {
		t.Fatalf("grown vertex degree %d", f.Degree(3))
	}
}

func TestFrozenOutOfRange(t *testing.T) {
	f := Freeze(New(3))
	if f.HasEdge(-1, 2) || f.HasEdge(0, 3) {
		t.Fatal("out-of-range HasEdge true")
	}
	if _, ok := f.EdgeWeight(7, 0); ok {
		t.Fatal("out-of-range EdgeWeight ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Neighbors(-1) did not panic")
		}
	}()
	f.Neighbors(-1)
}

// TestFrozenNeighborsSealed checks the returned rows are capacity-clamped:
// an append by a misbehaving caller must not overwrite the next row in the
// shared slab.
func TestFrozenNeighborsSealed(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	f := Freeze(g)
	row := f.Neighbors(0)
	_ = append(row, Halfedge{To: 99, W: 99})
	requireSameTopology(t, f, g)
}

func TestThawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := frozenRandGraph(rng, 20, 40)
	th := Freeze(g).Thaw()
	requireSameTopology(t, Freeze(th), g)
	// The thawed copy is independent of the frozen original.
	th.AddEdge(0, 19, 9)
	if !th.HasEdge(0, 19) {
		t.Fatal("thawed graph not mutable")
	}
}

// TestFrozenSearchAgrees pins that every Searcher query returns identical
// results on a Graph and its Frozen counterpart.
func TestFrozenSearchAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s1, s2 := NewSearcher(0), NewSearcher(0)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := frozenRandGraph(rng, n, 2*n)
		f := Freeze(g)
		for q := 0; q < 30; q++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			d1, ok1 := s1.DijkstraTarget(g, src, dst, Inf)
			d2, ok2 := s2.DijkstraTarget(f, src, dst, Inf)
			if ok1 != ok2 || (ok1 && math.Abs(d1-d2) > 1e-12) {
				t.Fatalf("DijkstraTarget(%d,%d): graph %v/%v, frozen %v/%v", src, dst, d1, ok1, d2, ok2)
			}
			p1, c1, okp1 := s1.PathTo(g, src, dst, Inf)
			p2, c2, okp2 := s2.PathTo(f, src, dst, Inf)
			if okp1 != okp2 || (okp1 && math.Abs(c1-c2) > 1e-12) {
				t.Fatalf("PathTo(%d,%d): graph %v/%v, frozen %v/%v", src, dst, c1, okp1, c2, okp2)
			}
			if okp1 {
				// Both paths must certify at their reported cost on the
				// *other* representation (the exact vertex sequence may
				// differ only if equal-cost ties exist; certify instead of
				// comparing sequences).
				if w, ok := PathWeight(f, p1); !ok || math.Abs(w-c1) > 1e-12 {
					t.Fatalf("graph path does not certify on frozen: %v %v", w, ok)
				}
				if w, ok := PathWeight(g, p2); !ok || math.Abs(w-c2) > 1e-12 {
					t.Fatalf("frozen path does not certify on graph: %v %v", w, ok)
				}
			}
		}
		out1, out2 := make([]float64, n), make([]float64, n)
		for v := range out1 {
			out1[v], out2[v] = Inf, Inf
		}
		src := rng.Intn(n)
		for _, vd := range s1.Ball(g, src, Inf) {
			out1[vd.V] = vd.D
		}
		for _, vd := range s2.Ball(f, src, Inf) {
			out2[vd.V] = vd.D
		}
		for v := range out1 {
			if out1[v] != out2[v] && !(math.IsInf(out1[v], 1) && math.IsInf(out2[v], 1)) {
				t.Fatalf("Ball dist[%d]: %v != %v", v, out1[v], out2[v])
			}
		}
	}
}
