package geom

import (
	"math"
)

// CellGrid is an immutable uniform spatial hash over a static point set,
// laid out for parallel consumption: point ids are bucketed per cell into
// one contiguous int32 slab (counting sort), and cell lookups go through a
// read-only map. Unlike DynamicGrid, whose shared query scratch makes it a
// single-caller structure, a CellGrid built once may be read by any number
// of goroutines concurrently — each worker carries its own CellScan
// scratch. This is what lets the slab-backed α-UBG builder fan grid cells
// out across workers: a cell (and with it every vertex it owns) belongs to
// exactly one worker, so per-vertex degree counts and row fills are
// single-writer by construction.
//
// Ids are int32: the builder targets n up to the tens of millions, where
// halving the id slab matters; NewCellGrid panics past MaxInt32 points.
type CellGrid struct {
	cell float64
	dim  int

	// ids is the bucketed point-id slab; cell c owns
	// ids[start[c]:start[c+1]]. Within a cell, ids are in increasing
	// point order; cells are numbered in first-encounter (point) order —
	// both deterministic, so everything built from a scan is too.
	ids   []int32
	start []int32

	// coord holds each cell's integer coordinates (dim values per cell);
	// the index maps a cell's packed coordinates to its number. Dimensions
	// up to len(cellKey) use the comparable-array map — inserting a string
	// key allocates, and one allocation per occupied cell is what keeps a
	// million-vertex build from being O(1)-allocation — higher dimensions
	// fall back to packed byte-string keys. Neither map is written after
	// construction, so lookups are concurrency-safe.
	coord []int64
	index map[cellKey]int32
	wide  map[string]int32
}

// cellKey packs the integer coordinates of one cell for dimensions up to
// cellKeyDim; unused trailing lanes stay zero (the dimension is fixed per
// grid, so zero lanes cannot collide across dimensions).
const cellKeyDim = 4

type cellKey [cellKeyDim]int64

// CellScan is the per-caller scratch a NeighborCells enumeration needs
// (coordinate key bytes for the wide path and the odometer offsets).
// Allocate one per worker with NewScan; a CellScan must not be shared
// between goroutines.
type CellScan struct {
	key []byte
	off []int64
}

// NewCellGrid buckets the points into cells of the given side. cell must
// be positive; all points must share a dimension (the caller validates —
// this is an internal builder primitive).
func NewCellGrid(points []Point, cell float64) *CellGrid {
	if cell <= 0 {
		panic("geom: grid cell side must be positive")
	}
	if len(points) > math.MaxInt32 {
		panic("geom: CellGrid point count exceeds int32")
	}
	g := &CellGrid{cell: cell}
	if len(points) == 0 {
		g.start = []int32{0}
		return g
	}
	g.dim = points[0].Dim()

	// Pass 1: discover cells and count occupancy. The cell id of each
	// point is remembered so pass 2 does not re-hash.
	home := make([]int32, len(points))
	var counts []int32
	if g.dim <= cellKeyDim {
		g.index = make(map[cellKey]int32)
		var key cellKey
		for i, p := range points {
			for j, x := range p {
				key[j] = int64(math.Floor(x / cell))
			}
			c, ok := g.index[key]
			if !ok {
				c = int32(len(counts))
				g.index[key] = c
				counts = append(counts, 0)
				g.coord = append(g.coord, key[:g.dim]...)
			}
			home[i] = c
			counts[c]++
		}
	} else {
		g.wide = make(map[string]int32)
		key := make([]byte, 0, 8*g.dim)
		for i, p := range points {
			key = g.appendKey(key[:0], p)
			c, ok := g.wide[string(key)]
			if !ok {
				c = int32(len(counts))
				g.wide[string(key)] = c
				counts = append(counts, 0)
				for _, x := range p {
					g.coord = append(g.coord, int64(math.Floor(x/cell)))
				}
			}
			home[i] = c
			counts[c]++
		}
	}

	// Prefix-sum into spans, then fill (counts become cursors).
	g.start = make([]int32, len(counts)+1)
	for c, k := range counts {
		g.start[c+1] = g.start[c] + k
	}
	g.ids = make([]int32, len(points))
	copy(counts, g.start[:len(counts)])
	for i := range points {
		c := home[i]
		g.ids[counts[c]] = int32(i)
		counts[c]++
	}
	return g
}

// appendKey appends the packed integer cell coordinates of p (wide path).
func (g *CellGrid) appendKey(dst []byte, p Point) []byte {
	for _, x := range p {
		ic := int64(math.Floor(x / g.cell))
		for s := 0; s < 64; s += 8 {
			dst = append(dst, byte(ic>>s))
		}
	}
	return dst
}

// Cells returns the number of non-empty cells.
func (g *CellGrid) Cells() int { return len(g.start) - 1 }

// CellIDs returns the point ids bucketed in cell c. The slice aliases the
// grid's slab: read-only.
func (g *CellGrid) CellIDs(c int) []int32 {
	return g.ids[g.start[c]:g.start[c+1]]
}

// NewScan returns scratch for NeighborCells, one per concurrent caller.
func (g *CellGrid) NewScan() *CellScan {
	return &CellScan{key: make([]byte, 0, 8*g.dim), off: make([]int64, g.dim)}
}

// NeighborCells appends to dst the numbers of every non-empty cell in the
// 3^d block centered on cell c — the cells a radius-≤-side query from any
// point of c can reach — including c itself, and returns the extended
// slice. The enumeration order is a fixed odometer over the coordinate
// offsets, so output is deterministic. Safe for concurrent callers as long
// as each brings its own CellScan.
func (g *CellGrid) NeighborCells(dst []int32, c int, sc *CellScan) []int32 {
	base := g.coord[c*g.dim : (c+1)*g.dim]
	for i := range sc.off {
		sc.off[i] = -1
	}
	narrow := g.index != nil
	for {
		if narrow {
			var key cellKey
			for i := 0; i < g.dim; i++ {
				key[i] = base[i] + sc.off[i]
			}
			if nc, ok := g.index[key]; ok {
				dst = append(dst, nc)
			}
		} else {
			key := sc.key[:0]
			for i := 0; i < g.dim; i++ {
				ic := base[i] + sc.off[i]
				for s := 0; s < 64; s += 8 {
					key = append(key, byte(ic>>s))
				}
			}
			sc.key = key
			if nc, ok := g.wide[string(key)]; ok {
				dst = append(dst, nc)
			}
		}
		i := 0
		for ; i < g.dim; i++ {
			sc.off[i]++
			if sc.off[i] <= 1 {
				break
			}
			sc.off[i] = -1
		}
		if i == g.dim {
			break
		}
	}
	return dst
}
