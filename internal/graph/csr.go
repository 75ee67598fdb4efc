package graph

import (
	"fmt"
	"math"
)

// CSRBuilder assembles a Frozen directly — rows pre-sized from a degree
// count into one exactly-sized halfedge slab — without going through the
// mutable Graph and its per-row append growth. It is the sink of the
// parallel build path (internal/ubg): the caller makes one counting pass
// accumulating Deg, calls Alloc, fills every row, and seals with Finish.
//
// Concurrency contract: after Alloc, disjoint rows may be filled from
// different goroutines — Row hands out non-overlapping slab windows — as
// long as each vertex's row is written by exactly one goroutine. Deg is
// plain memory; parallel counting passes must likewise partition vertices
// so no element is written by two workers.
type CSRBuilder struct {
	// Deg is the per-vertex halfedge count the caller accumulates before
	// Alloc. Each undirected edge contributes once at each endpoint.
	Deg []int32

	rows []rowSpan
	slab []Halfedge
}

// NewCSRBuilder returns a builder for a graph on n vertices with all
// degree counts zero.
func NewCSRBuilder(n int) *CSRBuilder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &CSRBuilder{Deg: make([]int32, n)}
}

// Alloc prefix-sums the degree counts into row spans and allocates the
// exactly-sized slab. Deg must not change afterwards.
func (b *CSRBuilder) Alloc() {
	b.rows = make([]rowSpan, len(b.Deg))
	var off int64
	for u, d := range b.Deg {
		if d < 0 {
			panic(fmt.Sprintf("graph: negative degree %d at vertex %d", d, u))
		}
		b.rows[u] = rowSpan{off: int32(off), deg: d}
		off += int64(d)
	}
	if off > math.MaxInt32 {
		panic(fmt.Sprintf("graph: CSR slab of %d halfedges exceeds int32 offsets", off))
	}
	b.slab = make([]Halfedge, off)
}

// Row returns u's slab window, length Deg[u], for the caller to fill.
// Capacity is clamped so a filler cannot spill into the next row.
func (b *CSRBuilder) Row(u int) []Halfedge {
	r := b.rows[u]
	return b.slab[r.off : r.off+r.deg : r.off+r.deg]
}

// Finish seals the builder into a Frozen. Every row must have been
// completely filled with a symmetric halfedge set — each undirected edge
// present in both endpoint rows — or the edge count (half the slab) and
// every consumer will be inconsistent. The builder must not be reused
// afterwards.
func (b *CSRBuilder) Finish() *Frozen {
	if b.rows == nil {
		b.Alloc() // n == 0 or all-isolated: an empty slab is valid
	}
	f := &Frozen{rows: b.rows, slab: b.slab, m: len(b.slab) / 2}
	b.rows, b.slab, b.Deg = nil, nil, nil
	return f
}

// NewWithDegree returns an empty graph on n vertices whose adjacency rows
// are pre-reserved with capacity degHint inside one shared slab: AddEdge
// appends in place until a row outgrows the hint, and only that row then
// reallocates. For bounded-degree topologies (every spanner in this
// repository) this collapses the O(n) per-row growth allocations of a
// build to O(1).
func NewWithDegree(n, degHint int) *Graph {
	g := New(n)
	if degHint <= 0 || n == 0 {
		return g
	}
	slab := make([]Halfedge, int64(n)*int64(degHint))
	for u := range g.adj {
		lo := int64(u) * int64(degHint)
		g.adj[u] = slab[lo : lo : lo+int64(degHint)]
	}
	return g
}
