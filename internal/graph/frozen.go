package graph

import "fmt"

// Topology is the narrow read-only view of an undirected weighted graph
// that every query-side consumer in the repository runs on: searches
// (Searcher), routing, metrics verification, cluster construction, and the
// baseline structures. Both the mutable *Graph (the builders' working
// representation) and the immutable *Frozen (the serving representation)
// implement it, so algorithms written against Topology work unchanged on
// either side of the freeze boundary.
//
// Implementations must be safe for concurrent readers as long as no writer
// mutates them; *Frozen is immutable and therefore always safe.
type Topology interface {
	// N returns the number of vertices.
	N() int
	// M returns the number of undirected edges.
	M() int
	// Degree returns the degree of u.
	Degree(u int) int
	// Neighbors returns the adjacency list of u. The returned slice is
	// owned by the topology and must not be modified.
	Neighbors(u int) []Halfedge
	// HasEdge reports whether the undirected edge {u, v} exists.
	HasEdge(u, v int) bool
	// EdgeWeight returns the weight of edge {u, v} and whether it exists.
	EdgeWeight(u, v int) (float64, bool)
	// EdgesUnordered returns all undirected edges in canonical (U < V)
	// form, in adjacency order.
	EdgesUnordered() []Edge
	// MaxDegree returns the maximum vertex degree (0 for an empty graph).
	MaxDegree() int
	// TotalWeight returns the sum of all edge weights.
	TotalWeight() float64
}

// Compile-time interface checks: the mutable and frozen representations
// must stay interchangeable on the read path.
var (
	_ Topology = (*Graph)(nil)
	_ Topology = (*Frozen)(nil)
)

// rowSpan locates one vertex's adjacency row inside a Frozen's halfedge
// slab. Offsets are explicit (rather than a prefix sum) so a delta rebuild
// can leave unchanged rows pointing at their old slab positions while new
// rows are appended at the end — the structural sharing that makes
// snapshot-per-commit affordable under churn.
type rowSpan struct{ off, deg int32 }

// Frozen is an immutable compressed-sparse-row graph: a flat offset table
// (rows) into one flat halfedge slab, plus the edge count. It is the
// serving-side counterpart of Graph: builders mutate a Graph and call
// Freeze at the boundary; every read-only consumer then runs on the Frozen
// through the Topology interface. Aggregates (TotalWeight, MaxDegree) are
// computed from the rows in row order when asked, so two Frozens with the
// same rows report bit-identical values however each was derived.
//
// Compared to Graph's [][]Halfedge, a Frozen has no per-vertex slice
// headers to chase and its rows are contiguous after a full Freeze, so
// searches walk memory linearly; and because it is immutable it may be
// shared across any number of concurrent readers without synchronization.
//
// Successive Frozens produced by ApplyRows share their halfedge slab: only
// rows whose adjacency actually changed are appended to the slab, and
// everything else aliases the previous snapshot's storage. The slab is
// append-only, so older snapshots remain valid while newer ones grow it.
type Frozen struct {
	rows []rowSpan
	slab []Halfedge
	m    int
}

// Freeze builds a Frozen copy of g with a fresh, exactly-sized, contiguous
// slab. The result shares no memory with g.
func Freeze(g *Graph) *Frozen { return FrozenFromRows(g.adj) }

// pack lays the rows (row(u) for every u < len(spans)) out back to back,
// in vertex order, in a fresh slab of capacity total, rewrites spans[u] to
// row u's window, and returns the slab. It is the one copying construction
// path: FrozenFromRows (and Freeze) fill a new span table through it, and
// ApplyRows compacts in place through it — row(u) is read before spans[u]
// is rewritten, so spans may be the very table row reads through. Every
// fresh Frozen, including a CSRBuilder's, has this layout.
func pack(spans []rowSpan, total int, row func(u int) []Halfedge) []Halfedge {
	slab := make([]Halfedge, 0, total)
	for u := range spans {
		r := row(u)
		spans[u] = rowSpan{off: int32(len(slab)), deg: int32(len(r))}
		slab = append(slab, r...)
	}
	return slab
}

// rowEqual reports whether u's frozen row (empty when u is beyond the
// frozen vertex count) matches hs element-for-element.
func (f *Frozen) rowEqual(u int, hs []Halfedge) bool {
	var old []Halfedge
	if u < len(f.rows) {
		old = f.row(u)
	}
	if len(old) != len(hs) {
		return false
	}
	for i, h := range hs {
		if old[i] != h {
			return false
		}
	}
	return true
}

// row returns u's adjacency without the defensive capacity clamp.
func (f *Frozen) row(u int) []Halfedge {
	r := f.rows[u]
	return f.slab[r.off : r.off+r.deg]
}

// N returns the number of vertices.
func (f *Frozen) N() int { return len(f.rows) }

// M returns the number of undirected edges.
func (f *Frozen) M() int { return f.m }

// Degree returns the degree of u.
func (f *Frozen) Degree(u int) int {
	f.check(u)
	return int(f.rows[u].deg)
}

// Neighbors returns the adjacency row of u. The slice aliases the frozen
// slab with capacity clamped to its length, so callers cannot grow into
// (or overwrite) neighboring rows.
func (f *Frozen) Neighbors(u int) []Halfedge {
	f.check(u)
	r := f.rows[u]
	return f.slab[r.off : r.off+r.deg : r.off+r.deg]
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (f *Frozen) HasEdge(u, v int) bool {
	_, ok := f.EdgeWeight(u, v)
	return ok
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists.
func (f *Frozen) EdgeWeight(u, v int) (float64, bool) {
	n := len(f.rows)
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, false
	}
	// Scan the smaller row.
	if f.rows[u].deg > f.rows[v].deg {
		u, v = v, u
	}
	for _, h := range f.row(u) {
		if h.To == v {
			return h.W, true
		}
	}
	return 0, false
}

// EdgesUnordered returns all undirected edges in canonical (U < V) form in
// row order.
func (f *Frozen) EdgesUnordered() []Edge {
	es := make([]Edge, 0, f.m)
	for u := range f.rows {
		for _, h := range f.row(u) {
			if u < h.To {
				es = append(es, Edge{U: u, V: h.To, W: h.W})
			}
		}
	}
	return es
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (f *Frozen) MaxDegree() int {
	max := 0
	for _, r := range f.rows {
		if int(r.deg) > max {
			max = int(r.deg)
		}
	}
	return max
}

// TotalWeight returns the sum of all edge weights, accumulated in row
// order exactly as Graph.TotalWeight does.
func (f *Frozen) TotalWeight() float64 {
	var s float64
	for u := range f.rows {
		for _, h := range f.row(u) {
			if u < h.To {
				s += h.W
			}
		}
	}
	return s
}

// Thaw returns a mutable deep copy of f — the inverse of Freeze, for
// callers that need to edit a served topology offline. The copy's rows are
// packed into one shared slab (capacity clamped per row, so a later
// AddEdge reallocates just the row it grows): thawing costs O(1)
// allocations regardless of graph size, which keeps it viable as the
// bridge from the parallel CSR build path to the mutable engines.
func (f *Frozen) Thaw() *Graph {
	g := New(len(f.rows))
	g.m = f.m
	var live int64
	for _, r := range f.rows {
		live += int64(r.deg)
	}
	slab := make([]Halfedge, 0, live)
	for u := range f.rows {
		lo := int64(len(slab))
		slab = append(slab, f.row(u)...)
		g.adj[u] = slab[lo:len(slab):len(slab)]
	}
	return g
}

func (f *Frozen) check(u int) {
	if u < 0 || u >= len(f.rows) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, len(f.rows)))
	}
}
