package graph

import (
	"math/rand"
	"testing"
)

// refGraph is a trivially-correct reference implementation: an edge map.
type refGraph struct {
	n     int
	edges map[[2]int]float64
}

func newRef(n int) *refGraph { return &refGraph{n: n, edges: map[[2]int]float64{}} }

func (r *refGraph) key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (r *refGraph) add(u, v int, w float64) { r.edges[r.key(u, v)] = w }
func (r *refGraph) remove(u, v int) bool {
	k := r.key(u, v)
	if _, ok := r.edges[k]; !ok {
		return false
	}
	delete(r.edges, k)
	return true
}
func (r *refGraph) has(u, v int) bool { _, ok := r.edges[r.key(u, v)]; return ok }
func (r *refGraph) degree(u int) int {
	d := 0
	for k := range r.edges {
		if k[0] == u || k[1] == u {
			d++
		}
	}
	return d
}
func (r *refGraph) total() float64 {
	var s float64
	for _, w := range r.edges {
		s += w
	}
	return s
}

// TestGraphModelBasedFuzz drives random operation sequences through Graph
// and the reference map simultaneously, checking observable state after
// every operation. This is the mutation-correctness backstop for the
// adjacency-list swap-delete logic in RemoveEdge.
func TestGraphModelBasedFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		ref := newRef(n)
		for op := 0; op < 300; op++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			switch rng.Intn(3) {
			case 0: // add (skip duplicates to keep set semantics)
				if !ref.has(u, v) {
					w := rng.Float64()
					g.AddEdge(u, v, w)
					ref.add(u, v, w)
				}
			case 1: // remove
				got := g.RemoveEdge(u, v)
				want := ref.remove(u, v)
				if got != want {
					t.Fatalf("trial %d op %d: RemoveEdge(%d,%d) = %v, want %v", trial, op, u, v, got, want)
				}
			case 2: // probe
				if g.HasEdge(u, v) != ref.has(u, v) {
					t.Fatalf("trial %d op %d: HasEdge(%d,%d) mismatch", trial, op, u, v)
				}
			}
			// Invariants after every op.
			if g.M() != len(ref.edges) {
				t.Fatalf("trial %d op %d: M = %d, want %d", trial, op, g.M(), len(ref.edges))
			}
		}
		// Final deep comparison.
		for x := 0; x < n; x++ {
			if g.Degree(x) != ref.degree(x) {
				t.Fatalf("trial %d: degree(%d) = %d, want %d", trial, x, g.Degree(x), ref.degree(x))
			}
		}
		if d := g.TotalWeight() - ref.total(); d > 1e-9 || d < -1e-9 {
			t.Fatalf("trial %d: total weight off by %v", trial, d)
		}
		for _, e := range g.Edges() {
			w, ok := ref.edges[[2]int{e.U, e.V}]
			if !ok || w != e.W {
				t.Fatalf("trial %d: edge %+v not in reference", trial, e)
			}
		}
	}
}
