package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveNeighbors is the quadratic reference for DynamicGrid queries.
func naiveNeighborsDyn(pts map[int]Point, p Point, radius float64, self int) []int {
	var out []int
	for id, q := range pts {
		if id == self {
			continue
		}
		if DistSq(p, q) <= radius*radius {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// TestDynamicGridDifferential churns a grid through adds, removes and moves
// and checks every query against the naive scan.
func TestDynamicGridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewDynamicGrid(1.0)
	ref := map[int]Point{}
	nextID := 0
	randPoint := func() Point {
		return Point{rng.Float64() * 5, rng.Float64() * 5}
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(ref) == 0: // add
			p := randPoint()
			g.Add(nextID, p)
			ref[nextID] = p
			nextID++
		case op == 1: // remove
			for id := range ref {
				g.Remove(id)
				delete(ref, id)
				break
			}
		default: // move
			for id := range ref {
				p := randPoint()
				g.Move(id, p)
				ref[id] = p
				break
			}
		}
		q := randPoint()
		radius := 0.3 + rng.Float64()*1.5
		got := append([]int(nil), g.NeighborsAppend(nil, q, radius, -1)...)
		sort.Ints(got)
		want := naiveNeighborsDyn(ref, q, radius, -1)
		if len(got) != len(want) {
			t.Fatalf("step %d: got %v, want %v", step, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: got %v, want %v", step, got, want)
			}
		}
	}
}

func TestDynamicGridSelfExclusionAndReuse(t *testing.T) {
	g := NewDynamicGrid(1.0)
	g.Add(0, Point{0, 0})
	g.Add(1, Point{0.5, 0})
	if got := g.NeighborsAppend(nil, Point{0, 0}, 1, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("self-exclusion broken: %v", got)
	}
	g.Remove(1)
	if got := g.NeighborsAppend(nil, Point{0.5, 0}, 0.1, -1); len(got) != 0 {
		t.Fatalf("removed id still indexed: %v", got)
	}
	// Freed id is re-addable.
	g.Add(1, Point{2, 2})
	if got := g.NeighborsAppend(nil, Point{2, 2}, 0.1, -1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("re-added id not found: %v", got)
	}
}

func TestDynamicGridPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	g := NewDynamicGrid(1.0)
	g.Add(0, Point{0, 0})
	expectPanic("duplicate add", func() { g.Add(0, Point{1, 1}) })
	expectPanic("dim mismatch", func() { g.Add(1, Point{1, 1, 1}) })
	expectPanic("remove unknown", func() { g.Remove(5) })
	expectPanic("zero cell", func() { NewDynamicGrid(0) })
}
