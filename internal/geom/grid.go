package geom

import "math"

// cellHash is the cell-indexing core of DynamicGrid: the byte-string
// encoding of integer cell coordinates and the odometer scan over the
// O(⌈radius/cell⌉^d) cells a fixed-radius query must inspect. It owns the
// query scratch buffers, so a DynamicGrid is not safe for concurrent use.
type cellHash struct {
	cell  float64
	dim   int
	cells map[string][]int

	// Query scratch, reused across calls so neighbor scans perform no
	// steady-state allocations.
	keybuf  []byte
	base    []int64
	offsets []int64
}

// newCellHash returns an empty hash with the given cell side (must be
// positive).
func newCellHash(cell float64) cellHash {
	if cell <= 0 {
		panic("geom: grid cell side must be positive")
	}
	return cellHash{cell: cell, cells: make(map[string][]int)}
}

// setDim fixes the dimension and sizes the scratch buffers.
func (h *cellHash) setDim(dim int) {
	h.dim = dim
	h.keybuf = make([]byte, 0, 8*dim)
	h.base = make([]int64, dim)
	h.offsets = make([]int64, dim)
}

// key computes the cell key of point p. Keys are encoded as small byte
// strings of the integer cell coordinates; map[string] gives us a compact,
// allocation-friendly multi-dimensional hash without unsafe tricks.
func (h *cellHash) key(p Point) string {
	buf := h.keybuf[:0]
	for _, c := range p {
		ic := int64(math.Floor(c / h.cell))
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(ic>>s))
		}
	}
	h.keybuf = buf
	return string(buf)
}

// scanAppend appends to dst the indices of all indexed points q (positions
// resolved through pts; other than index self, pass -1 to disable
// self-exclusion) with |p - q| <= radius, and returns the extended slice.
// radius is supported up to any multiple of the cell side (⌈radius/cell⌉
// cells are scanned per axis), but the scan is most efficient when
// radius <= cell.
func (h *cellHash) scanAppend(dst []int, pts []Point, p Point, radius float64, self int) []int {
	span := int64(math.Ceil(radius / h.cell))
	for i, c := range p {
		h.base[i] = int64(math.Floor(c / h.cell))
		h.offsets[i] = -span
	}
	r2 := radius * radius
	for {
		// Visit cell base+offsets.
		buf := h.keybuf[:0]
		for i := 0; i < h.dim; i++ {
			ic := h.base[i] + h.offsets[i]
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(ic>>s))
			}
		}
		h.keybuf = buf
		for _, idx := range h.cells[string(buf)] {
			if idx == self {
				continue
			}
			if DistSq(p, pts[idx]) <= r2 {
				dst = append(dst, idx)
			}
		}
		// Advance the offset vector like an odometer.
		i := 0
		for ; i < h.dim; i++ {
			h.offsets[i]++
			if h.offsets[i] <= span {
				break
			}
			h.offsets[i] = -span
		}
		if i == h.dim {
			break
		}
	}
	return dst
}
