package geom

import (
	"math"
	"math/rand"
	"slices"
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

// naiveNeighbors is the O(n) reference a Near query must match: the ids of
// the points (nil ones absent) within radius of p, self excluded, in
// increasing order.
func naiveNeighbors(points []Point, p Point, radius float64, self int) []int {
	var out []int
	for i, q := range points {
		if q != nil && i != self && DistSq(p, q) <= radius*radius {
			out = append(out, i)
		}
	}
	return out
}

// near runs a Near query on a fresh scan and sorts its answer.
func near(g *Grid, points []Point, p Point, self int) []int {
	got := g.Near(&GridScan{}, nil, points, p, self)
	sort.Ints(got)
	return got
}

func TestGridMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct {
		n    int
		d    int
		cell float64
	}{
		{n: 200, d: 2, cell: 0.25},
		{n: 150, d: 3, cell: 0.3},
		{n: 100, d: 4, cell: 0.5},
		{n: 100, d: 5, cell: 0.6}, // the wide-key path
	} {
		points := make([]Point, tc.n)
		for i := range points {
			points[i] = randPoint(rng, tc.d)
		}
		grid := NewGrid(tc.d, tc.cell, points)
		for trial := 0; trial < 30; trial++ {
			self := rng.Intn(tc.n)
			got := near(grid, points, points[self], self)
			if want := naiveNeighbors(points, points[self], tc.cell, self); !slices.Equal(got, want) {
				t.Fatalf("n=%d d=%d: neighbors %v, want %v", tc.n, tc.d, got, want)
			}
		}
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	// Floor-based cell keys must work for negative coordinates too.
	points := []Point{{-0.9, -0.9}, {-1.1, -1.1}, {0.1, 0.1}}
	if got := near(NewGrid(2, 1, points), points, points[0], 0); !slices.Equal(got, []int{1}) {
		t.Errorf("Near = %v, want [1]", got)
	}
}

func TestGridSelfExclusion(t *testing.T) {
	points := []Point{{0, 0}, {0.1, 0}}
	grid := NewGrid(2, 1, points)
	with := near(grid, points, points[0], -1)
	without := near(grid, points, points[0], 0)
	if len(with) != 2 || len(without) != 1 {
		t.Errorf("self exclusion broken: with=%v without=%v", with, without)
	}
}

func TestGridEmpty(t *testing.T) {
	grid := NewGrid(2, 1, nil)
	if got := grid.Near(&GridScan{}, nil, nil, Point{0, 0}, -1); got != nil {
		t.Errorf("Near on empty grid = %v", got)
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	// A pair exactly one side apart is within the radius, across a cell
	// boundary and along it.
	points := []Point{{0, 0}, {1, 0}, {0, 1}}
	grid := NewGrid(2, 1, points)
	if got := near(grid, points, points[0], 0); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("boundary points not included: %v", got)
	}
}

func TestCellGridPartition(t *testing.T) {
	// Dimension 5 exercises the wide (string-keyed) index path; the low
	// dimensions use the packed comparable-array keys.
	for _, d := range []int{1, 2, 3, 5} {
		pts := randPoints(t, 500, d, int64(d)*7, 5)
		g := NewGrid(d, 0.9, pts)
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
	if g := NewGrid(2, 1, nil); g.Cells() != 0 {
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
		g := NewGrid(d, radius, pts)
		var sc GridScan

		type pair struct{ u, v int32 }
		covered := make(map[pair]bool)
		for c := 0; c < g.Cells(); c++ {
			ncells := g.NeighborCells(&sc, c)
			if !slices.Contains(ncells, int32(c)) {
				t.Fatalf("d=%d: NeighborCells(%d) omits the cell itself", d, c)
			}
			for _, nc := range ncells {
				for _, u := range g.CellIDs(c) {
					for _, v := range g.CellIDs(int(nc)) {
						covered[pair{u, v}] = true
					}
				}
			}
			// Determinism: a second scan yields the identical sequence.
			if again := g.NeighborCells(&GridScan{}, c); !slices.Equal(again, ncells) {
				t.Fatalf("d=%d: NeighborCells order differs between scans", d)
			}
		}
		for u := range pts {
			for v := range pts {
				if u != v && DistSq(pts[u], pts[v]) <= radius*radius && !covered[pair{int32(u), int32(v)}] {
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
	a, b := NewGrid(2, 0.7, pts), NewGrid(2, 0.7, pts)
	if a.Cells() != b.Cells() {
		t.Fatalf("cell counts differ: %d vs %d", a.Cells(), b.Cells())
	}
	for c := 0; c < a.Cells(); c++ {
		if !slices.Equal(a.CellIDs(c), b.CellIDs(c)) {
			t.Fatalf("cell %d contents differ", c)
		}
	}
	// And no neighbor scan emits a cell twice.
	var sc GridScan
	for c := 0; c < a.Cells(); c++ {
		s := slices.Clone(a.NeighborCells(&sc, c))
		slices.Sort(s)
		if len(slices.Compact(s)) != len(s) {
			t.Fatalf("cell %d: duplicate neighbor in %v", c, s)
		}
	}
}

// TestDynamicGridDifferential churns a grid through adds, removes and moves
// and checks every query against the naive scan.
func TestDynamicGridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewGrid(2, 1, nil)
	var sc GridScan
	var pts []Point // by id; nil marks an absent id
	var live []int
	randPoint := func() Point {
		return Point{rng.Float64() * 5, rng.Float64() * 5}
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(live) == 0: // add
			p := randPoint()
			g.Add(&sc, len(pts), p)
			live = append(live, len(pts))
			pts = append(pts, p)
		case op == 1: // remove
			k := rng.Intn(len(live))
			id := live[k]
			g.Remove(&sc, id, pts[id])
			pts[id] = nil
			live = slices.Delete(live, k, k+1)
		default: // move
			id := live[rng.Intn(len(live))]
			p := randPoint()
			g.Move(&sc, id, pts[id], p)
			pts[id] = p
		}
		q := randPoint()
		if got, want := near(g, pts, q, -1), naiveNeighbors(pts, q, 1, -1); !slices.Equal(got, want) {
			t.Fatalf("step %d: got %v, want %v", step, got, want)
		}
	}
}

func TestDynamicGridSelfExclusionAndReuse(t *testing.T) {
	g := NewGrid(2, 1, nil)
	var sc GridScan
	pts := []Point{{0, 0}, {0.5, 0}}
	g.Add(&sc, 0, pts[0])
	g.Add(&sc, 1, pts[1])
	if got := near(g, pts, pts[0], 0); !slices.Equal(got, []int{1}) {
		t.Fatalf("self-exclusion broken: %v", got)
	}
	g.Remove(&sc, 1, pts[1])
	pts[1] = Point{2, 2}
	if got := near(g, pts, Point{0.5, 0}, -1); !slices.Equal(got, []int{0}) {
		t.Fatalf("removed id still indexed: %v", got)
	}
	// A freed id is re-addable elsewhere.
	g.Add(&sc, 1, pts[1])
	if got := near(g, pts, Point{2, 2}, -1); !slices.Equal(got, []int{1}) {
		t.Fatalf("re-added id not found: %v", got)
	}
}

// TestGridBucketOrder pins the order a query reports a cell's ids in, which
// decides the order the dynamic engine adds base edges: arrival order, and
// Remove moves the bucket's last id into the gap.
func TestGridBucketOrder(t *testing.T) {
	pts := []Point{{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}, {0.4, 0.4}}
	g := NewGrid(2, 1, nil)
	var sc GridScan
	for id := len(pts) - 1; id >= 0; id-- { // as Restore adds
		g.Add(&sc, id, pts[id])
	}
	g.Remove(&sc, 3, pts[3])
	if got := g.Near(&sc, nil, pts, Point{0, 0}, -1); !slices.Equal(got, []int{0, 2, 1}) {
		t.Fatalf("bucket order %v, want [0 2 1]", got)
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
	g := NewGrid(2, 1, nil)
	var sc GridScan
	g.Add(&sc, 0, Point{0, 0})
	expectPanic("dim mismatch", func() { g.Add(&sc, 1, Point{1, 1, 1}) })
	expectPanic("negative id", func() { g.Add(&sc, -1, Point{1, 1}) })
	expectPanic("remove unknown", func() { g.Remove(&sc, 5, Point{0, 0}) })
	expectPanic("remove from another cell", func() { g.Remove(&sc, 0, Point{3, 3}) })
	expectPanic("zero cell", func() { NewGrid(2, 0, nil) })
	expectPanic("zero dimension", func() { NewGrid(0, 1, nil) })
}

// TestGridRecyclesDrainedCells roams one point across many cells: each
// drained cell leaves the index and its number is reused, so the grid
// stays two cells deep.
func TestGridRecyclesDrainedCells(t *testing.T) {
	for _, d := range []int{2, 5} {
		g := NewGrid(d, 1, nil)
		var sc GridScan
		at := make(Point, d)
		g.Add(&sc, 0, at)
		for step := 1; step <= 100; step++ {
			to := slices.Clone(at)
			to[step%d] += 1.5
			g.Move(&sc, 0, at, to)
			at = to
		}
		if g.Cells() > 2 || len(g.index)+len(g.wide) != 1 {
			t.Fatalf("d=%d: %d cell numbers, %d indexed, after a roam", d, g.Cells(), len(g.index)+len(g.wide))
		}
		if got := near(g, []Point{at}, at, -1); !slices.Equal(got, []int{0}) {
			t.Fatalf("d=%d: roamed point not found: %v", d, got)
		}
	}
}

// TestGridOpsDoNotAllocate: with the array keys, a warmed scan and cells
// to recycle, moves within and across cells and the engine's query make
// no allocation.
func TestGridOpsDoNotAllocate(t *testing.T) {
	pts := []Point{{0.3, 0.2}, {0.6, 0.3}, {1.4, 0.5}}
	g := NewGrid(2, 1, pts)
	var sc GridScan
	var dst []int
	// stops[k] and stops[k+1] share a cell; stops[k+2] is across a border.
	stops := []Point{{0.3, 0.2}, {0.4, 0.25}, {2.5, 0.2}, {2.6, 0.3}}
	step := func(k int) {
		to := stops[k%len(stops)]
		g.Move(&sc, 0, pts[0], to)
		pts[0] = to
		dst = g.Near(&sc, dst[:0], pts, to, 0)
	}
	for k := 0; k < 8; k++ { // warm the scan, the buckets and the free list
		step(k)
	}
	k := 0
	if a := testing.AllocsPerRun(100, func() { step(k); k++ }); a != 0 {
		t.Errorf("Move+Near allocated %.2f times per run", a)
	}
}

// FuzzGrid decodes the input into grid operations — adds, removes and
// moves on a grid of side 1, and a bulk build of the live points after
// each — and checks every query against a quadratic DistSq <= 1 scan.
// Points sit on a lattice of step 1/2 in d ∈ {2, 3, 5} (5 takes the wide
// keys), so they land exactly on cell boundaries, coincide, and have pairs
// at exactly the radius. The first byte picks d; each op is one byte
// (kind, and which live id) and d lattice coordinates. The seed corpus is
// in testdata/fuzz/FuzzGrid.
func FuzzGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := [3]int{2, 3, 5}[data[0]%3]
		data = data[1:]
		g := NewGrid(dim, 1, nil)
		var sc GridScan
		var pts []Point // by id; nil marks an absent id
		var live []int
		for ops := 0; len(data) > dim && ops < 64; ops++ {
			op := data[0]
			p := make(Point, dim)
			for j := range p {
				p[j] = float64(int(data[1+j]%9)-4) / 2
			}
			data = data[1+dim:]
			switch {
			case op%3 == 0 || len(live) == 0:
				g.Add(&sc, len(pts), p)
				live = append(live, len(pts))
				pts = append(pts, p)
			case op%3 == 1:
				k := int(op/3) % len(live)
				id := live[k]
				g.Remove(&sc, id, pts[id])
				pts[id] = nil
				live = slices.Delete(live, k, k+1)
			default:
				id := live[int(op/3)%len(live)]
				g.Move(&sc, id, pts[id], p)
				pts[id] = p
			}
			if occupied := len(g.index) + len(g.wide); occupied != g.Cells()-len(g.free) || occupied > len(live) {
				t.Fatalf("op %d: %d cells indexed, %d numbered, %d free, %d points", ops, occupied, g.Cells(), len(g.free), len(live))
			}
			for _, q := range append([]Point{p}, pts...) {
				if q == nil {
					continue
				}
				if got, want := near(g, pts, q, -1), naiveNeighbors(pts, q, 1, -1); !slices.Equal(got, want) {
					t.Fatalf("op %d: Near(%v) = %v, want %v", ops, q, got, want)
				}
			}
			checkBulk(t, dim, pts, live)
		}
	})
}

// checkBulk builds a grid over the live points and checks that its
// cell-by-cell walk, as internal/ubg's builder runs it, finds each point's
// neighbours exactly once.
func checkBulk(t *testing.T, dim int, pts []Point, live []int) {
	t.Helper()
	dense := make([]Point, len(live))
	for i, id := range live {
		dense[i] = pts[id]
	}
	g := NewGrid(dim, 1, dense)
	var sc GridScan
	seen := 0
	for c := 0; c < g.Cells(); c++ {
		for _, u := range g.CellIDs(c) {
			seen++
			var got []int
			for _, nc := range g.NeighborCells(&sc, c) {
				for _, v := range g.CellIDs(int(nc)) {
					if v != u && DistSq(dense[u], dense[v]) <= 1 {
						got = append(got, int(v))
					}
				}
			}
			sort.Ints(got)
			if want := naiveNeighbors(dense, dense[u], 1, int(u)); !slices.Equal(got, want) {
				t.Fatalf("bulk: neighbours of %v are %v, want %v", dense[u], got, want)
			}
		}
	}
	if seen != len(dense) {
		t.Fatalf("bulk: %d of %d points bucketed", seen, len(dense))
	}
}
