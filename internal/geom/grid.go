package geom

import (
	"encoding/binary"
	"math"
)

// Grid is a uniform spatial hash over R^d whose cell side is also its query
// radius: every point within one side of a point lies in the 3^d block of
// cells around the point's own cell. It is the one index behind the α-UBG,
// the fixed-radius incidence question the paper's model (§1.1) comes down
// to. internal/ubg buckets a static point set in one counting sort and
// walks it cell by cell (NeighborCells), fanning cells out across workers;
// internal/dynamic adds, removes and moves points while nodes churn and
// asks for the points near one position (Near), O(3^d) cells per operation.
//
// Points are named by caller-chosen ids in [0, MaxInt32] whose positions
// the caller keeps; the grid stores only ids, bucketed per cell in the
// order they arrived (Remove swap-deletes). A Grid holds no scratch: each
// caller brings its own GridScan, so between writes any number of
// goroutines may read one grid at once.
type Grid struct {
	cell float64
	dim  int

	// index maps a cell's integer coordinates to its number for
	// dimensions up to cellKeyDim, wide for higher ones. Inserting a
	// string key allocates and an array key does not: a string per
	// occupied cell would keep a million-vertex build from being
	// O(1)-allocation, and cost every churn move across cells.
	index map[cellKey]int32
	wide  map[string]int32

	// coord[c*dim:(c+1)*dim] holds cell c's integer coordinates and ids[c]
	// its point ids (the bulk build sizes ids once it has counted the
	// cells). A cell drained by Remove leaves the index and its number
	// goes on free for the next new cell, so churn that sweeps points
	// across cells cannot grow the grid without bound.
	ids   [][]int32
	coord []int64
	free  []int32
}

// cellKey packs the integer coordinates of one cell for dimensions up to
// cellKeyDim; unused trailing lanes stay zero (the dimension is fixed per
// grid, so zero lanes cannot collide across dimensions).
const cellKeyDim = 4

type cellKey [cellKeyDim]int64

// GridScan is one caller's scratch for Grid operations: cell coordinates,
// the wide key bytes and the neighbour-cell list. Its zero value is ready
// to use; a GridScan must not be shared between goroutines.
type GridScan struct {
	base, cur []int64
	key       []byte
	cells     []int32
}

// NewGrid returns a grid of the given cell side over dim-dimensional
// points, holding points[i] under id i. The points are bucketed by a
// counting sort into one id slab: within a cell, ids are in increasing
// order, and cells are numbered in first-encounter (point) order, so a
// walk over the cells is deterministic.
func NewGrid(dim int, cell float64, points []Point) *Grid {
	if cell <= 0 {
		panic("geom: grid cell side must be positive")
	}
	if dim <= 0 {
		panic("geom: zero-dimensional grid")
	}
	if len(points) > math.MaxInt32 {
		panic("geom: grid point count exceeds int32")
	}
	g := &Grid{cell: cell, dim: dim}
	if dim <= cellKeyDim {
		g.index = make(map[cellKey]int32)
	} else {
		g.wide = make(map[string]int32)
	}
	var sc GridScan
	home := make([]int32, len(points))
	var count []int32
	for i, p := range points {
		c := g.cellOf(&sc, g.coords(&sc, p), makeCell)
		if int(c) == len(count) {
			count = append(count, 0)
		}
		home[i] = c
		count[c]++
	}
	slab := make([]int32, len(points))
	g.ids = make([][]int32, len(count))
	lo := int32(0)
	for c, k := range count {
		g.ids[c] = slab[lo : lo : lo+k]
		lo += k
	}
	for i, c := range home {
		g.ids[c] = append(g.ids[c], int32(i))
	}
	return g
}

// Cells returns the number of cells, drained ones included.
func (g *Grid) Cells() int { return len(g.ids) }

// CellIDs returns the point ids bucketed in cell c (none for a drained
// cell). The slice aliases the grid: read-only.
func (g *Grid) CellIDs(c int) []int32 { return g.ids[c] }

// NeighborCells returns the numbers of the non-empty cells in the 3^d
// block centered on non-empty cell c, c included: the cells a query from
// any point of c can reach. The slice is sc's, valid until sc's next use.
func (g *Grid) NeighborCells(sc *GridScan, c int) []int32 {
	sc.cells = g.walk(sc, g.coord[c*g.dim:(c+1)*g.dim])
	return sc.cells
}

// Near appends to dst the ids of the points within one cell side of p
// (|p - q| <= side, positions read from pts by id), skipping id self (-1
// skips none), and returns the extended slice. Ids come cell by cell in
// NeighborCells' order and, within a cell, in bucket order.
func (g *Grid) Near(sc *GridScan, dst []int, pts []Point, p Point, self int) []int {
	sc.cells = g.walk(sc, g.coords(sc, p))
	r2 := g.cell * g.cell
	for _, c := range sc.cells {
		for _, id := range g.ids[c] {
			if int(id) != self && DistSq(p, pts[id]) <= r2 {
				dst = append(dst, int(id))
			}
		}
	}
	return dst
}

// Add indexes id at position p, at the end of its cell's bucket.
func (g *Grid) Add(sc *GridScan, id int, p Point) {
	if id < 0 || id > math.MaxInt32 {
		panic("geom: grid id out of range")
	}
	c := g.cellOf(sc, g.coords(sc, p), makeCell)
	if int(c) == len(g.ids) {
		g.ids = append(g.ids, nil)
	}
	g.ids[c] = append(g.ids[c], int32(id))
}

// Remove drops id, indexed at position p, from its cell: the bucket's last
// id takes its place. It panics if id is not in p's cell.
func (g *Grid) Remove(sc *GridScan, id int, p Point) {
	if c := g.cellOf(sc, g.coords(sc, p), findCell); c >= 0 {
		b := g.ids[c]
		for i, x := range b {
			if int(x) == id {
				b[i] = b[len(b)-1]
				g.ids[c] = b[:len(b)-1]
				if len(b) == 1 {
					g.cellOf(sc, sc.base, dropCell)
				}
				return
			}
		}
	}
	panic("geom: grid id missing from its cell")
}

// Move reindexes id from position from to position to. A move within a
// cell, the usual small mobility step, leaves the buckets as they are.
func (g *Grid) Move(sc *GridScan, id int, from, to Point) {
	if len(to) == g.dim {
		same := true
		for j, x := range g.coords(sc, from) {
			same = same && x == g.axis(to[j])
		}
		if same {
			return
		}
	}
	g.Remove(sc, id, from)
	g.Add(sc, id, to)
}

// axis returns the integer cell coordinate of x.
func (g *Grid) axis(x float64) int64 { return int64(math.Floor(x / g.cell)) }

// coords returns the integer cell coordinates of p, in sc.base.
func (g *Grid) coords(sc *GridScan, p Point) []int64 {
	if len(p) != g.dim {
		panic("geom: grid dimension mismatch")
	}
	sc.base = sc.base[:0]
	for _, x := range p {
		sc.base = append(sc.base, g.axis(x))
	}
	return sc.base
}

// walk returns, in sc.cells, the numbers of the non-empty cells whose
// coordinates differ from base by at most 1 on every axis, enumerated as
// an odometer with axis 0 turning fastest. Coordinates wrap as int64 do,
// so a block at the edge of the range still has 3^d cells.
func (g *Grid) walk(sc *GridScan, base []int64) []int32 {
	cells := sc.cells[:0]
	cur := append(sc.cur[:0], base...)
	for i := range cur {
		cur[i]--
	}
	for {
		if c := g.cellOf(sc, cur, findCell); c >= 0 {
			cells = append(cells, c)
		}
		i := 0
		for ; i < len(cur); i++ {
			if cur[i]-base[i] < 1 {
				cur[i]++
				break
			}
			cur[i] = base[i] - 1
		}
		if i == len(cur) {
			break
		}
	}
	sc.cur = cur
	return cells
}

// cellOp is what cellOf does with a cell's entry in the index.
type cellOp int

const (
	findCell cellOp = iota // look the cell up
	makeCell               // look it up, creating it if absent
	dropCell               // delete it, freeing its number
)

// cellOf is the grid's one cell-key function: it packs the integer cell
// coordinates c into the index key — a cellKey up to cellKeyDim
// dimensions, c's little-endian bytes (in sc.key) beyond — and applies op
// to the cell's entry. It returns the cell's number, or -1 if there is no
// such cell or op dropped it.
func (g *Grid) cellOf(sc *GridScan, c []int64, op cellOp) int32 {
	var k cellKey
	if g.wide == nil {
		copy(k[:], c)
	} else {
		sc.key = sc.key[:0]
		for _, x := range c {
			sc.key = binary.LittleEndian.AppendUint64(sc.key, uint64(x))
		}
	}
	var n int32
	var ok bool
	if g.wide == nil {
		n, ok = g.index[k]
	} else {
		n, ok = g.wide[string(sc.key)]
	}
	switch {
	case op == dropCell:
		if g.wide == nil {
			delete(g.index, k)
		} else {
			delete(g.wide, string(sc.key))
		}
		g.free = append(g.free, n)
		return -1
	case ok:
		return n
	case op == findCell:
		return -1
	}
	if f := len(g.free); f > 0 {
		n = g.free[f-1]
		g.free = g.free[:f-1]
		copy(g.coord[int(n)*g.dim:], c)
	} else {
		n = int32(len(g.coord) / g.dim)
		g.coord = append(g.coord, c...)
	}
	if g.wide == nil {
		g.index[k] = n
	} else {
		g.wide[string(sc.key)] = n
	}
	return n
}
