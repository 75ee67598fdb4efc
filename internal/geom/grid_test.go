package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// naiveNeighbors is the O(n) reference implementation the cell scan must
// match.
func naiveNeighbors(points []Point, p Point, radius float64, self int) []int {
	var out []int
	for i, q := range points {
		if i == self {
			continue
		}
		if Dist(p, q) <= radius {
			out = append(out, i)
		}
	}
	return out
}

// gridOf indexes points[i] under id i: the cellHash scan exercised through
// its one production carrier, DynamicGrid.
func gridOf(points []Point, cell float64) *DynamicGrid {
	g := NewDynamicGrid(cell)
	for i, p := range points {
		g.Add(i, p)
	}
	return g
}

func TestGridMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct {
		n      int
		d      int
		cell   float64
		radius float64
	}{
		{n: 200, d: 2, cell: 0.25, radius: 0.25},
		{n: 200, d: 2, cell: 0.25, radius: 0.6}, // radius > cell: multi-cell scan
		{n: 150, d: 3, cell: 0.3, radius: 0.3},
		{n: 100, d: 4, cell: 0.5, radius: 0.45},
		{n: 50, d: 2, cell: 1.0, radius: 0.05}, // tiny radius in big cells
	} {
		points := make([]Point, tc.n)
		for i := range points {
			points[i] = randPoint(rng, tc.d)
		}
		grid := gridOf(points, tc.cell)
		for trial := 0; trial < 30; trial++ {
			self := rng.Intn(tc.n)
			got := grid.NeighborsAppend(nil, points[self], tc.radius, self)
			want := naiveNeighbors(points, points[self], tc.radius, self)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("n=%d d=%d r=%v: got %d neighbors, want %d", tc.n, tc.d, tc.radius, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d d=%d: neighbor mismatch %v vs %v", tc.n, tc.d, got, want)
				}
			}
		}
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	// Floor-based cell keys must work for negative coordinates too.
	points := []Point{{-0.9, -0.9}, {-1.1, -1.1}, {0.1, 0.1}}
	grid := gridOf(points, 1.0)
	got := grid.NeighborsAppend(nil, points[0], 0.5, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors = %v, want [1]", got)
	}
}

func TestGridSelfExclusion(t *testing.T) {
	points := []Point{{0, 0}, {0.1, 0}}
	grid := gridOf(points, 1.0)
	with := grid.NeighborsAppend(nil, points[0], 1, -1)
	without := grid.NeighborsAppend(nil, points[0], 1, 0)
	if len(with) != 2 || len(without) != 1 {
		t.Errorf("self exclusion broken: with=%v without=%v", with, without)
	}
}

func TestGridEmpty(t *testing.T) {
	// Before the first Add the grid has no dimension yet; a query must
	// answer empty rather than trip the dimension check.
	grid := NewDynamicGrid(1.0)
	if got := grid.NeighborsAppend(nil, Point{0, 0}, 1, -1); got != nil {
		t.Errorf("Neighbors on empty grid = %v", got)
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	points := []Point{{0, 0}, {1, 0}}
	grid := gridOf(points, 0.5)
	got := grid.NeighborsAppend(nil, points[0], 1.0, 0)
	if len(got) != 1 {
		t.Errorf("boundary point not included: %v", got)
	}
}
