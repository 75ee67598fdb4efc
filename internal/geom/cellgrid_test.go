package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randPoints(t testing.TB, n, d int, seed int64, side float64) []Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.Float64() * side
		}
		pts[i] = p
	}
	return pts
}

func TestCellGridPartition(t *testing.T) {
	// Dimension 5 exercises the wide (string-keyed) index path; the low
	// dimensions use the packed comparable-array keys.
	for _, d := range []int{1, 2, 3, 5} {
		pts := randPoints(t, 500, d, int64(d)*7, 5)
		g := NewCellGrid(pts, 0.9)
		seen := make([]bool, len(pts))
		for c := 0; c < g.Cells(); c++ {
			ids := g.CellIDs(c)
			if len(ids) == 0 {
				t.Fatalf("d=%d: cell %d is empty", d, c)
			}
			for i, id := range ids {
				if seen[id] {
					t.Fatalf("d=%d: point %d in two cells", d, id)
				}
				seen[id] = true
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("d=%d: cell %d ids not increasing", d, c)
				}
				// Every point must be inside its cell's box.
				base := g.coord[c*g.dim : (c+1)*g.dim]
				for j, x := range pts[id] {
					if got := int64(math.Floor(x / g.cell)); got != base[j] {
						t.Fatalf("d=%d: point %d coord %d in wrong cell", d, id, j)
					}
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("d=%d: point %d unbucketed", d, id)
			}
		}
	}
}

func TestCellGridEmpty(t *testing.T) {
	g := NewCellGrid(nil, 1)
	if g.Cells() != 0 {
		t.Fatalf("empty grid: Cells=%d", g.Cells())
	}
}

// TestCellGridNeighborCompleteness checks the core guarantee the parallel
// builder relies on: every pair within the cell side appears in some
// (cell, neighbor-cell) combination, and the neighbor enumeration is
// deterministic and includes the center cell.
func TestCellGridNeighborCompleteness(t *testing.T) {
	// Dimension 5 exercises the wide (string-keyed) index path.
	for _, d := range []int{1, 2, 3, 5} {
		const radius = 1.0
		n := 300
		if d == 5 {
			n = 80 // the completeness check below is quadratic in n
		}
		pts := randPoints(t, n, d, 100+int64(d), 4)
		g := NewCellGrid(pts, radius)
		sc := g.NewScan()

		type pair struct{ u, v int32 }
		covered := make(map[pair]bool)
		var ncells []int32
		for c := 0; c < g.Cells(); c++ {
			ncells = g.NeighborCells(ncells[:0], c, sc)
			self := false
			for _, nc := range ncells {
				if int(nc) == c {
					self = true
				}
				for _, u := range g.CellIDs(c) {
					for _, v := range g.CellIDs(int(nc)) {
						covered[pair{u, v}] = true
					}
				}
			}
			if !self {
				t.Fatalf("d=%d: NeighborCells(%d) omits the cell itself", d, c)
			}
			// Determinism: a second scan yields the identical sequence.
			again := g.NeighborCells(nil, c, g.NewScan())
			if len(again) != len(ncells) {
				t.Fatalf("d=%d: NeighborCells not deterministic", d)
			}
			for i := range again {
				if again[i] != ncells[i] {
					t.Fatalf("d=%d: NeighborCells order differs between scans", d)
				}
			}
		}
		for u := range pts {
			for v := range pts {
				if u == v {
					continue
				}
				if DistSq(pts[u], pts[v]) <= radius*radius && !covered[pair{int32(u), int32(v)}] {
					t.Fatalf("d=%d: in-radius pair (%d,%d) not covered by any neighbor scan", d, u, v)
				}
			}
		}
	}
}

func TestCellGridSortedNeighborOrder(t *testing.T) {
	// Regression guard for deterministic cell numbering: cells are numbered
	// in first-encounter order of the points, so two grids over the same
	// point slice agree exactly.
	pts := randPoints(t, 200, 2, 42, 3)
	a, b := NewCellGrid(pts, 0.7), NewCellGrid(pts, 0.7)
	if a.Cells() != b.Cells() {
		t.Fatalf("cell counts differ: %d vs %d", a.Cells(), b.Cells())
	}
	for c := 0; c < a.Cells(); c++ {
		ai, bi := a.CellIDs(c), b.CellIDs(c)
		if len(ai) != len(bi) {
			t.Fatalf("cell %d sizes differ", c)
		}
		for i := range ai {
			if ai[i] != bi[i] {
				t.Fatalf("cell %d contents differ", c)
			}
		}
	}
	// And the union of all neighbor scans per cell is stable under sorting,
	// i.e. no duplicates are emitted.
	sc := a.NewScan()
	for c := 0; c < a.Cells(); c++ {
		ncells := a.NeighborCells(nil, c, sc)
		s := append([]int32(nil), ncells...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				t.Fatalf("cell %d: duplicate neighbor %d", c, s[i])
			}
		}
	}
}
