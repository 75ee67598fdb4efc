package graph

import (
	"testing"
)

func TestAddHasRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 2.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("absent edge reported present")
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 2.5 {
		t.Errorf("EdgeWeight = %v, %v", w, ok)
	}
	if !g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge reported failure")
	}
	if g.HasEdge(0, 1) || g.M() != 1 {
		t.Error("edge not removed")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("double remove should fail")
	}
	if g.RemoveEdge(0, 3) {
		t.Error("removing absent edge should fail")
	}
}

func TestEdgeWeightOutOfRange(t *testing.T) {
	g := New(2)
	if _, ok := g.EdgeWeight(-1, 0); ok {
		t.Error("negative vertex should miss")
	}
	if g.HasEdge(0, 5) {
		t.Error("out-of-range vertex should miss")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	g.AddEdge(1, 1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range vertex")
		}
	}()
	g.AddEdge(0, 5, 1)
}

func TestNegativeVertexCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative n")
		}
	}()
	New(-1)
}

func TestDegrees(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	if g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Errorf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if New(0).MaxDegree() != 0 {
		t.Error("empty graph MaxDegree should be 0")
	}
}

func TestEdgesSortedCanonical(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2, 5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 0, 3)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("len = %d", len(es))
	}
	for i, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %d not canonical: %+v", i, e)
		}
		if i > 0 && es[i-1].W > e.W {
			t.Errorf("edges not weight-sorted at %d", i)
		}
	}
}

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2, 1.0)
	if e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge not canonical: %+v", e)
	}
}

func TestTotalWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 2.5)
	if got := g.TotalWeight(); got != 4 {
		t.Errorf("TotalWeight = %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	c := g.Clone()
	c.AddEdge(1, 2, 1)
	if g.HasEdge(1, 2) {
		t.Error("Clone shares adjacency storage")
	}
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("edge counts wrong: %d %d", g.M(), c.M())
	}
}

func TestFromEdgesRoundTrip(t *testing.T) {
	es := []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}
	g := FromEdges(3, es)
	got := g.Edges()
	if len(got) != 2 || got[0] != es[0] || got[1] != es[1] {
		t.Errorf("round trip mismatch: %v", got)
	}
}

func TestGrowKeepsEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.Grow(6)
	if g.N() != 6 {
		t.Fatalf("N = %d, want 6", g.N())
	}
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatalf("edges lost across Grow: m=%d", g.M())
	}
	// New slots are usable immediately.
	g.AddEdge(2, 5, 3)
	if !g.HasEdge(2, 5) || g.Degree(4) != 0 {
		t.Fatal("grown slots unusable")
	}
	// Shrinking or same-size calls are no-ops.
	g.Grow(2)
	if g.N() != 6 || g.M() != 3 {
		t.Fatalf("Grow(2) mutated the graph: n=%d m=%d", g.N(), g.M())
	}
}

func TestPathWeight(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1.5)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 0.5)
	cases := []struct {
		name string
		path []int
		want float64
		ok   bool
	}{
		{"empty", nil, 0, true},
		{"single", []int{3}, 0, true},
		{"full walk", []int{0, 1, 2, 3}, 4, true},
		{"reverse walk", []int{3, 2, 1, 0}, 4, true},
		{"missing edge", []int{0, 2}, 0, false},
		{"out of range", []int{0, 1, 5}, 0, false},
		{"negative vertex", []int{-1, 0}, 0, false},
		{"isolated ok vertex", []int{4}, 0, true},
	}
	for _, c := range cases {
		got, ok := PathWeight(g, c.path)
		if ok != c.ok || got != c.want {
			t.Errorf("%s: PathWeight = (%v, %v), want (%v, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestResetKeepsVerticesAndRowCapacity(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.Reset()
	if g.N() != 3 || g.M() != 0 || g.Degree(1) != 0 || g.HasEdge(0, 1) {
		t.Fatalf("after Reset: n=%d m=%d deg(1)=%d", g.N(), g.M(), g.Degree(1))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		g.AddEdge(0, 1, 3)
		g.AddEdge(1, 2, 4)
		g.Reset()
	}); allocs != 0 {
		t.Errorf("refilling reset rows allocates %v times, want 0", allocs)
	}
	g.AddEdge(2, 0, 5)
	if w, ok := g.EdgeWeight(0, 2); !ok || w != 5 || g.M() != 1 {
		t.Errorf("edge added after Reset: weight %v (present %v), m=%d", w, ok, g.M())
	}
}
