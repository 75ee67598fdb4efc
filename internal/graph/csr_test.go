package graph

import (
	"math/rand"
	"testing"
)

// randEdges draws a random simple undirected weighted graph on n vertices.
func randEdges(n, m int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	es := make([]Edge, 0, m)
	for len(es) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		es = append(es, Edge{U: u, V: v, W: 0.1 + rng.Float64()})
	}
	return es
}

func frozenEqual(t *testing.T, a, b *Frozen) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || a.MaxDegree() != b.MaxDegree() {
		t.Fatalf("aggregates differ: n %d/%d m %d/%d maxdeg %d/%d",
			a.N(), b.N(), a.M(), b.M(), a.MaxDegree(), b.MaxDegree())
	}
	if a.TotalWeight() != b.TotalWeight() {
		t.Fatalf("total weight differs: %v vs %v", a.TotalWeight(), b.TotalWeight())
	}
	for u := 0; u < a.N(); u++ {
		ra, rb := a.Neighbors(u), b.Neighbors(u)
		if len(ra) != len(rb) {
			t.Fatalf("vertex %d degree differs: %d vs %d", u, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("vertex %d halfedge %d differs: %+v vs %+v", u, i, ra[i], rb[i])
			}
		}
	}
}

// TestCSRBuilderMatchesFreeze builds the same graph once through the
// mutable Graph + Freeze path and once through the count/Alloc/fill
// CSRBuilder path, and requires identical snapshots.
func TestCSRBuilderMatchesFreeze(t *testing.T) {
	const n, m = 200, 900
	es := randEdges(n, m, 7)

	g := New(n)
	for _, e := range es {
		g.AddEdge(e.U, e.V, e.W)
	}
	want := Freeze(g)

	b := NewCSRBuilder(n)
	for _, e := range es {
		b.Deg[e.U]++
		b.Deg[e.V]++
	}
	b.Alloc()
	fill := make([]int32, n)
	for _, e := range es {
		b.Row(e.U)[fill[e.U]] = Halfedge{To: e.V, W: e.W}
		fill[e.U]++
		b.Row(e.V)[fill[e.V]] = Halfedge{To: e.U, W: e.W}
		fill[e.V]++
	}
	got := b.Finish()
	frozenEqual(t, got, want)
}

func TestCSRBuilderEmpty(t *testing.T) {
	f := NewCSRBuilder(0).Finish()
	if f.N() != 0 || f.M() != 0 || f.MaxDegree() != 0 || f.TotalWeight() != 0 {
		t.Fatalf("empty CSR not empty: %d %d", f.N(), f.M())
	}
	// All-isolated: Finish without Alloc must still produce valid rows.
	f = NewCSRBuilder(5).Finish()
	if f.N() != 5 || f.M() != 0 {
		t.Fatalf("isolated CSR: n=%d m=%d", f.N(), f.M())
	}
	for u := 0; u < 5; u++ {
		if len(f.Neighbors(u)) != 0 {
			t.Fatalf("vertex %d not isolated", u)
		}
	}
}

func TestCSRBuilderRowCapacityClamped(t *testing.T) {
	b := NewCSRBuilder(3)
	b.Deg[0], b.Deg[1], b.Deg[2] = 1, 1, 2
	b.Alloc()
	r := b.Row(0)
	if cap(r) != 1 {
		t.Fatalf("row capacity %d leaks into the next row", cap(r))
	}
}

// TestNewWithDegreeEquivalent checks the pre-sized constructor behaves
// exactly like New under AddEdge, including growth past the hint.
func TestNewWithDegreeEquivalent(t *testing.T) {
	const n = 64
	es := randEdges(n, 400, 11)

	plain := New(n)
	hinted := NewWithDegree(n, 4) // deliberately too small: rows must grow
	for _, e := range es {
		plain.AddEdge(e.U, e.V, e.W)
		hinted.AddEdge(e.U, e.V, e.W)
	}
	frozenEqual(t, Freeze(hinted), Freeze(plain))

	// Removing from a slab-backed row must not corrupt neighbors.
	e := es[0]
	plain.RemoveEdge(e.U, e.V)
	hinted.RemoveEdge(e.U, e.V)
	frozenEqual(t, Freeze(hinted), Freeze(plain))
}

// TestThawSharedSlab checks the slab-backed Thaw: the thawed graph equals
// the frozen source, and mutating one thawed row never clobbers another
// (capacity clamping).
func TestThawSharedSlab(t *testing.T) {
	const n = 50
	es := randEdges(n, 200, 13)
	g := New(n)
	for _, e := range es {
		g.AddEdge(e.U, e.V, e.W)
	}
	f := Freeze(g)
	th := f.Thaw()
	frozenEqual(t, Freeze(th), f)

	// Grow one row: appends must copy out, not overwrite the shared slab.
	before := append([]Halfedge(nil), th.Neighbors(1)...)
	th.AddEdge(0, 49, 0.5)
	th.RemoveEdge(0, 49)
	got := th.Neighbors(1)
	if len(got) != len(before) {
		t.Fatalf("row 1 length changed by edits to row 0")
	}
	for i := range got {
		if got[i] != before[i] {
			t.Fatalf("row 1 corrupted by edits to row 0")
		}
	}
}
