package geom

// DynamicGrid is a uniform spatial hash over R^d whose point set changes
// over time (CellGrid is the immutable, concurrently readable one).
// internal/dynamic uses it to keep α-UBG incidence queries O(3^d) per
// operation while nodes join, leave and move — rebuilding a static index
// per operation would cost O(n) each.
//
// Points are identified by caller-chosen dense integer ids (the dynamic
// engine's vertex slots); ids may be added, removed, and re-added freely.
// A DynamicGrid reuses internal scratch buffers between queries (the
// cellHash core) and is not safe for concurrent use.
type DynamicGrid struct {
	cellHash
	points []Point // id-indexed; nil marks an absent id
	count  int
}

// NewDynamicGrid returns an empty grid with the given cell side. cell must
// be positive. The dimension is fixed by the first point added.
func NewDynamicGrid(cell float64) *DynamicGrid {
	return &DynamicGrid{cellHash: newCellHash(cell)}
}

// Add indexes point p under id. It panics if id is already present or the
// dimension disagrees with previously added points.
func (g *DynamicGrid) Add(id int, p Point) {
	if id < 0 {
		panic("geom: negative grid id")
	}
	if g.dim == 0 {
		if p.Dim() == 0 {
			panic("geom: zero-dimensional point")
		}
		g.setDim(p.Dim())
	} else if p.Dim() != g.dim {
		panic("geom: grid dimension mismatch")
	}
	for id >= len(g.points) {
		g.points = append(g.points, nil)
	}
	if g.points[id] != nil {
		panic("geom: duplicate grid id")
	}
	g.points[id] = p
	k := g.key(p)
	g.cells[k] = append(g.cells[k], id)
	g.count++
}

// Remove drops id from the index. It panics if id is not present.
func (g *DynamicGrid) Remove(id int) {
	p := g.point(id)
	k := g.key(p)
	bucket := g.cells[k]
	for i, x := range bucket {
		if x == id {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			// Deleting drained buckets keeps the map from growing without
			// bound as churn sweeps points across cells.
			if len(bucket) == 0 {
				delete(g.cells, k)
			} else {
				g.cells[k] = bucket
			}
			g.points[id] = nil
			g.count--
			return
		}
	}
	panic("geom: grid id missing from its cell")
}

// Move reindexes id at its new position p. Small mobility steps usually
// stay within the point's current cell, in which case only the stored
// position changes and the bucket map is untouched.
func (g *DynamicGrid) Move(id int, p Point) {
	old := g.point(id)
	if p.Dim() == g.dim && g.key(old) == g.key(p) {
		g.points[id] = p
		return
	}
	g.Remove(id)
	g.Add(id, p)
}

func (g *DynamicGrid) point(id int) Point {
	if id < 0 || id >= len(g.points) || g.points[id] == nil {
		panic("geom: unknown grid id")
	}
	return g.points[id]
}

// NeighborsAppend appends to dst the ids of all indexed points q (other
// than id self; pass -1 to disable self-exclusion) with |p - q| <= radius,
// and returns the extended slice. Reusing dst[:0] across calls makes
// queries allocation-free once the slice has grown to the largest
// neighborhood; the shared scratch buffers forbid concurrent use.
func (g *DynamicGrid) NeighborsAppend(dst []int, p Point, radius float64, self int) []int {
	if g.count == 0 {
		return dst
	}
	if p.Dim() != g.dim {
		panic("geom: grid dimension mismatch")
	}
	return g.scanAppend(dst, g.points, p, radius, self)
}
