package graph

import (
	"math/rand"
	"testing"
)

// rowUpdates captures g's rows at the touched vertices the way a WAL frame
// or the engine's delta export does.
func rowUpdates(g *Graph, touched []int) []RowUpdate {
	ups := make([]RowUpdate, 0, len(touched))
	for _, v := range touched {
		ups = append(ups, RowUpdate{V: v, Row: g.Neighbors(v)})
	}
	return ups
}

// TestApplyRowsDifferential drives a mutable Graph and a row-applied Frozen
// chain through the same random batches — edge toggles and vertex growth —
// and requires after every batch that the chain is indistinguishable from
// a from-scratch Freeze: same rows in the same order, and every Topology
// method equal, the total weight bit for bit.
func TestApplyRowsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(48)
	f := ApplyRows(nil, g.N(), nil)

	for step := 0; step < 400; step++ {
		if rng.Intn(20) == 0 {
			g.Grow(g.N() + 1 + rng.Intn(3))
		}
		n := g.N()
		var touched []int // duplicates are deliberate: they must be harmless
		for k := 0; k < 1+rng.Intn(4); k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				g.RemoveEdge(u, v)
			} else {
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
			touched = append(touched, u, v)
		}
		f = ApplyRows(f, n, rowUpdates(g, touched))
		requireSameTopology(t, f, g)
		for u := 0; u < n; u++ {
			want, got := g.Neighbors(u), f.Neighbors(u)
			if len(want) != len(got) {
				t.Fatalf("step %d: vertex %d row length %d != %d", step, u, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("step %d: vertex %d halfedge %d: %v != %v", step, u, i, got[i], want[i])
				}
			}
		}
	}
}

// TestApplyRowsFreezeChainDifferential roots many short chains at a
// from-scratch Freeze of a random graph — so the first ApplyRows lands on an
// exactly-sized slab — and drives single-edge adds, removes and vertex growth
// through them, checking after every step that the chained snapshot is
// indistinguishable from the mutable graph.
func TestApplyRowsFreezeChainDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		g := frozenRandGraph(rng, n, 2*n)
		f := Freeze(g)
		for step := 0; step < 40; step++ {
			var touched []int
			switch r := rng.Float64(); {
			case r < 0.45: // add an edge
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u == v || g.HasEdge(u, v) {
					break
				}
				g.AddEdge(u, v, 0.1+rng.Float64())
				touched = []int{u, v}
			case r < 0.8: // remove an edge
				es := g.EdgesUnordered()
				if len(es) == 0 {
					break
				}
				e := es[rng.Intn(len(es))]
				g.RemoveEdge(e.U, e.V)
				touched = []int{e.U, e.V}
			default: // grow
				g.Grow(g.N() + 1 + rng.Intn(3))
			}
			f = ApplyRows(f, g.N(), rowUpdates(g, touched))
			requireSameTopology(t, f, g)
		}
	}
}

// TestApplyRowsNoChange pins the pointer-identity fast path and growth.
func TestApplyRowsNoChange(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	f := ApplyRows(nil, 4, rowUpdates(g, []int{0, 1, 2}))
	if f.M() != 2 || f.TotalWeight() != 3 {
		t.Fatalf("built m=%d weight=%g, want 2/3", f.M(), f.TotalWeight())
	}
	same := ApplyRows(f, 4, rowUpdates(g, []int{0}))
	if same != f {
		t.Fatal("identical rows must return prev by pointer")
	}
	grown := ApplyRows(f, 8, nil)
	if grown == f || grown.N() != 8 || grown.M() != 2 {
		t.Fatalf("growth: n=%d m=%d", grown.N(), grown.M())
	}
	if grown.Degree(7) != 0 {
		t.Fatal("new rows must start empty")
	}
}

// TestApplyRowsSharing pins the structural sharing of a snapshot chain:
// no-op and net-zero updates return the predecessor, a real update
// appends only the changed rows and leaves the predecessor answering from
// its own version, and two successors forked from one freshly frozen
// snapshot never write into each other's rows.
func TestApplyRowsSharing(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2)
	g.AddEdge(4, 5, 3)
	f1 := Freeze(g)

	// No touched rows: the previous snapshot is returned by identity.
	if f2 := ApplyRows(f1, 6, nil); f2 != f1 {
		t.Fatal("no-op update did not return the previous snapshot")
	}

	// Touched rows that compare equal (net-zero batch: add then remove)
	// also return the previous snapshot by identity.
	g.AddEdge(0, 3, 9)
	g.RemoveEdge(0, 3)
	if f2 := ApplyRows(f1, 6, rowUpdates(g, []int{0, 3})); f2 != f1 {
		t.Fatal("net-zero update did not return the previous snapshot")
	}

	// A fork of the exactly-sized slab: a successor on a side branch must
	// not be clobbered by the main chain's successor, which lands in the
	// same slab positions only if the slab had spare capacity.
	side := New(6)
	side.AddEdge(0, 1, 1)
	side.AddEdge(2, 3, 2)
	side.AddEdge(4, 5, 3)
	side.AddEdge(0, 4, 6)
	fs := ApplyRows(f1, 6, rowUpdates(side, []int{0, 4}))

	// A real change produces a new snapshot that only rebuilds the touched
	// rows.
	g.AddEdge(0, 2, 7)
	f2 := ApplyRows(f1, 6, rowUpdates(g, []int{0, 2}))
	requireSameTopology(t, f2, g)
	requireSameTopology(t, fs, side)
	if f2 == f1 {
		t.Fatal("real update returned the previous snapshot")
	}
	// The old snapshot still answers from its own version.
	if f1.HasEdge(0, 2) {
		t.Fatal("old snapshot sees the new edge")
	}
	if !f2.HasEdge(0, 2) {
		t.Fatal("new snapshot misses the new edge")
	}

	// A further update in the chain shares storage with its predecessor:
	// untouched rows keep their spans (dirty rows are appended at the
	// tail, so a rebuilt row would have moved there).
	g.AddEdge(1, 5, 8)
	f3 := ApplyRows(f2, 6, rowUpdates(g, []int{1, 5}))
	requireSameTopology(t, f3, g)
	if f3.rows[4] != f2.rows[4] || f3.rows[0] != f2.rows[0] {
		t.Fatal("untouched rows were rebuilt instead of shared")
	}
	if f3.rows[1].off < int32(len(f2.slab)) {
		t.Fatal("dirty row was not appended at the slab tail")
	}
}

// TestApplyRowsCompaction drives enough churn through one chain that the
// slab must compact, and checks correctness is unaffected and the slab stays
// bounded relative to the live edge set.
func TestApplyRowsCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := frozenRandGraph(rng, 16, 32)
	f := Freeze(g)
	compactions := 0
	for step := 0; step < 500; step++ {
		var touched []int
		if es := g.EdgesUnordered(); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			g.RemoveEdge(e.U, e.V)
			touched = append(touched, e.U, e.V)
		}
		if u, v := rng.Intn(16), rng.Intn(16); u != v && !g.HasEdge(u, v) {
			g.AddEdge(u, v, 0.1+rng.Float64())
			touched = append(touched, u, v)
		}
		prev := f
		f = ApplyRows(f, g.N(), rowUpdates(g, touched))
		if f != prev && len(f.slab) == cap(f.slab) && len(f.slab) < len(prev.slab) {
			compactions++
		}
		requireSameTopology(t, f, g)
	}
	if compactions == 0 {
		t.Fatal("500 churn steps never compacted the slab")
	}
	if len(f.slab) > 3*2*g.M()+64 {
		t.Fatalf("slab never compacted: %d halfedges for m=%d", len(f.slab), g.M())
	}
}
