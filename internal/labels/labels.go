// Package labels implements an exact hub-label (2-hop) distance oracle
// built at the freeze boundary: when the serving layer publishes a frozen
// topology snapshot, a pruned landmark labeling over it turns every
// point-to-point distance query into an allocation-free sorted-array
// intersection — microseconds of bidirectional Dijkstra become tens of
// nanoseconds of merge loop — without ever returning a wrong answer.
//
// Construction is pruned landmark labeling (Akiba–Iwata–Yoshida, SIGMOD
// 2013): process every vertex as a "hub" in a fixed rank order, running a
// Dijkstra from each that is pruned wherever the labels built so far
// already certify a distance no worse than the tentative one
// (graph.Searcher.DijkstraPruned). Each un-pruned settled vertex v gains
// the label entry (hub, d(hub, v)). The classical invariant: after all
// hubs are processed, for every pair (s, t) the minimum of
// L(s)[h] + L(t)[h] over common hubs h equals the exact shortest-path
// distance (and no common hub means unreachable). The rank order decides
// label size, not correctness; ours seeds it with cluster.GreedyCover
// centers ordered by member count (the paper's own cluster machinery —
// centers of big clusters sit on many shortest paths), then the remaining
// vertices by decreasing degree.
//
// Storage mirrors graph.Frozen: per-vertex (hub, dist) runs live in one
// flat slab behind a span table, hubs stored as int32 ranks in increasing
// order so a query is a single merge-intersection over two sorted runs —
// no maps, no allocation, cache-linear.
//
// Incremental maintenance consumes the same touched-row deltas
// graph.ApplyRows derives each snapshot from. Commits that only add edges
// (joins, and the repair passes that re-certify them — repair never
// removes a spanner edge) stay exact through a patch set: the added edges' endpoints become
// "portals", an exact portal-to-portal distance matrix over the updated
// graph is closed once per Update (Floyd–Warshall over k ≤ PatchLimit
// portals, seeded with label distances and patch edges), and a query
// takes the minimum of the label-only answer and the best
// s→portal→portal→t composition. This is exact, not heuristic: any
// shortest path in the updated graph decomposes into old-graph segments
// between patch-edge traversals, and each such segment is measured
// exactly by the labels. Commits that remove or re-weigh edges (leaves,
// moves) cannot be patched soundly, so the oracle marks itself stale —
// every query then reports "cannot certify" and the caller falls back to
// its search (slower, never wrong) — and a full rebuild
// triggers after RebuildAfter stale commits. Oracles are immutable:
// Update returns a new value sharing the label slab, exactly like
// ApplyRows' structural sharing, so concurrent readers of an older
// snapshot's oracle are never disturbed.
package labels

import (
	"sort"

	"topoctl/internal/cluster"
	"topoctl/internal/graph"
)

// maxPatch bounds the portal set so query-side scratch lives on the stack.
const maxPatch = 32

// Options configures construction and maintenance policy.
type Options struct {
	// Radius is the cluster-cover radius used to seed the hub order
	// (default: 4x the mean edge weight). It affects label size only,
	// never correctness.
	Radius float64
	// RebuildAfter is how many stale commits (commits with edge removals)
	// accumulate before Update rebuilds from scratch (default 32; 1 means
	// rebuild on the first removal).
	RebuildAfter int
	// PatchLimit caps the patch portal set; beyond it the oracle goes
	// stale until rebuild (default 16, max 32).
	PatchLimit int
}

func (o *Options) normalize() {
	if o.RebuildAfter <= 0 {
		o.RebuildAfter = 32
	}
	if o.PatchLimit <= 0 {
		o.PatchLimit = 16
	}
	if o.PatchLimit > maxPatch {
		o.PatchLimit = maxPatch
	}
}

// span locates one vertex's label run in the slab.
type span struct{ off, cnt int32 }

// Oracle is an immutable exact distance oracle over one topology version.
// Query is safe for concurrent use; Update returns a successor oracle and
// never modifies the receiver's observable state.
type Oracle struct {
	opts Options

	// Label state, exact for g0 (the graph Build ran on, n0 vertices).
	n0    int
	spans []span
	hubs  []int32 // hub ranks, strictly increasing within each span
	dists []float64

	// cur is the graph this oracle answers for: g0 plus the patch edges.
	// It must stay unmodified while the oracle is in use (frozen snapshots
	// satisfy this by construction).
	cur graph.Topology

	// Patch state: edges present in cur but not in g0 (additions only),
	// their endpoint portals, and the exact portal-to-portal distance
	// matrix in cur (row-major k x k).
	patch []graph.Edge
	pends []int32
	pmat  []float64

	// Stale state: a removal or re-weigh was applied; queries cannot
	// certify and Update rebuilds after RebuildAfter such commits.
	stale      bool
	staleCount int
}

// Build constructs an exact oracle for g. The graph must not be modified
// while the oracle is in use.
func Build(g graph.Topology, opts Options) *Oracle {
	opts.normalize()
	n := g.N()
	o := &Oracle{opts: opts, n0: n, cur: g, spans: make([]span, n)}

	// Hub order: cover centers by decreasing member count, then the rest
	// by decreasing degree (ties by id). Ranks are what labels store, so
	// per-vertex runs come out sorted for free.
	hubOf := hubOrder(g, opts.Radius)

	// Temporary per-vertex lists; flattened into the slab below.
	type entry struct {
		r int32
		d float64
	}
	lists := make([][]entry, n)
	// Scatter array for the current hub's labels, rank-indexed and
	// epoch-stamped so it resets in O(|L(hub)|) per hub.
	hubDist := make([]float64, n)
	hubStamp := make([]uint32, n)
	var epoch uint32
	srch := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(srch)

	for rk := 0; rk < n; rk++ {
		h := hubOf[rk]
		epoch++
		for _, e := range lists[h] {
			hubDist[e.r] = e.d
			hubStamp[e.r] = epoch
		}
		rk32 := int32(rk)
		srch.DijkstraPruned(g, h, graph.Inf, func(v int, d float64) bool {
			// Prune when the labels built so far already certify d(h, v)
			// at or below the tentative distance.
			best := graph.Inf
			for _, e := range lists[v] {
				if hubStamp[e.r] == epoch {
					if s := hubDist[e.r] + e.d; s < best {
						best = s
					}
				}
			}
			if best <= d {
				return false
			}
			lists[v] = append(lists[v], entry{r: rk32, d: d})
			return true
		})
	}

	total := 0
	for _, l := range lists {
		total += len(l)
	}
	o.hubs = make([]int32, 0, total)
	o.dists = make([]float64, 0, total)
	for v, l := range lists {
		o.spans[v] = span{off: int32(len(o.hubs)), cnt: int32(len(l))}
		for _, e := range l {
			o.hubs = append(o.hubs, e.r)
			o.dists = append(o.dists, e.d)
		}
	}
	return o
}

// hubOrder computes the vertex processing order: GreedyCover centers by
// decreasing member count first, remaining vertices by decreasing degree.
func hubOrder(g graph.Topology, radius float64) []int {
	n := g.N()
	if radius <= 0 {
		if m := g.M(); m > 0 {
			radius = 4 * g.TotalWeight() / float64(m)
		} else {
			radius = 1
		}
	}
	order := make([]int, 0, n)
	placed := make([]bool, n)
	cov := cluster.GreedyCover(g, radius)
	for _, c := range cov.CentersBySize() {
		order = append(order, c)
		placed[c] = true
	}
	rest := make([]int, 0, n-len(order))
	for v := 0; v < n; v++ {
		if !placed[v] {
			rest = append(rest, v)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		di, dj := g.Degree(rest[i]), g.Degree(rest[j])
		if di != dj {
			return di > dj
		}
		return rest[i] < rest[j]
	})
	return append(order, rest...)
}

// q0 is the label-only distance: exact d(u, v) in the build graph g0 for
// u, v < n0 (graph.Inf when unreachable there), by sorted merge over the
// two label runs. Allocation-free.
func (o *Oracle) q0(u, v int) float64 {
	su, sv := o.spans[u], o.spans[v]
	a, aEnd := int(su.off), int(su.off+su.cnt)
	b, bEnd := int(sv.off), int(sv.off+sv.cnt)
	best := graph.Inf
	for a < aEnd && b < bEnd {
		ra, rb := o.hubs[a], o.hubs[b]
		switch {
		case ra == rb:
			if s := o.dists[a] + o.dists[b]; s < best {
				best = s
			}
			a++
			b++
		case ra < rb:
			a++
		default:
			b++
		}
	}
	return best
}

// q0x extends q0 to vertices beyond the build graph: a vertex that did not
// exist in g0 has distance 0 to itself and infinity to everything else
// through old edges alone (its every edge is a patch edge).
func (o *Oracle) q0x(u, v int) float64 {
	if u == v {
		return 0
	}
	if u >= o.n0 || v >= o.n0 {
		return graph.Inf
	}
	return o.q0(u, v)
}

// Query answers the exact shortest-path distance between s and t on the
// oracle's current graph. The boolean reports whether the oracle can
// certify an answer: false means the caller must fall back to a direct
// search (the oracle is stale after un-patchable mutations). When true,
// the distance is exact — graph.Inf for unreachable pairs. s and t must
// be valid vertex ids of the current graph. Query performs no allocation
// and is safe for concurrent use.
func (o *Oracle) Query(s, t int) (float64, bool) {
	if o.stale {
		return 0, false
	}
	if s == t {
		return 0, true
	}
	d := o.q0x(s, t)
	if k := len(o.pends); k > 0 {
		// Compose through the portals: s -> pi (old edges only), pi -> pj
		// (exact in the patched graph, precomputed), pj -> t (old edges
		// only). Stack scratch keeps the hit path allocation-free.
		var ds, dt [maxPatch]float64
		for i, p := range o.pends {
			ds[i] = o.q0x(s, int(p))
			dt[i] = o.q0x(int(p), t)
		}
		for i := 0; i < k; i++ {
			if ds[i] == graph.Inf {
				continue
			}
			row := o.pmat[i*k : i*k+k]
			for j := 0; j < k; j++ {
				if sum := ds[i] + row[j] + dt[j]; sum < d {
					d = sum
				}
			}
		}
	}
	return d, true
}

// Update derives the oracle for a successor graph from this one. touched
// must contain every vertex whose adjacency differs between the oracle's
// current graph and g (the same contract as graph.ApplyRows; extra or
// duplicate entries are harmless — dynamic.Engine.LastExportTouched is
// exactly this set). Additions-only changes extend the patch and stay
// exact; any removal or weight change flips the successor stale (queries
// decline, callers fall back) until RebuildAfter stale commits trigger a
// full rebuild. The receiver is never modified; label storage is shared
// between predecessor and successor.
func (o *Oracle) Update(g graph.Topology, touched []int) *Oracle {
	if len(touched) == 0 && (o.cur == nil || g.N() == o.cur.N()) {
		return o
	}
	if o.stale {
		if o.staleCount+1 >= o.opts.RebuildAfter {
			return Build(g, o.opts)
		}
		n := *o
		n.staleCount++
		n.cur = g
		return &n
	}
	adds, removed := o.diff(g, touched)
	if removed {
		return o.goStale(g)
	}
	if len(adds) == 0 {
		n := *o
		n.cur = g
		return &n
	}
	// Extend the portal set with the new edges' endpoints.
	pends := append([]int32(nil), o.pends...)
	idx := make(map[int32]int, len(pends)+2*len(adds))
	for i, p := range pends {
		idx[p] = i
	}
	for _, e := range adds {
		for _, v := range [2]int32{int32(e.U), int32(e.V)} {
			if _, ok := idx[v]; !ok {
				if len(pends) >= o.opts.PatchLimit {
					return o.goStale(g)
				}
				idx[v] = len(pends)
				pends = append(pends, v)
			}
		}
	}
	n := *o
	n.cur = g
	n.pends = pends
	n.patch = append(append([]graph.Edge(nil), o.patch...), adds...)
	// Exact portal matrix: seed with label distances (old-graph paths) and
	// patch edges, close with Floyd–Warshall over the portals. Any
	// shortest path between portals in the patched graph alternates
	// old-graph segments (measured exactly by q0x) with patch edges, so
	// the closure is exact.
	k := len(pends)
	m := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			m[i*k+j] = o.q0x(int(pends[i]), int(pends[j]))
		}
	}
	for _, e := range n.patch {
		i, j := idx[int32(e.U)], idx[int32(e.V)]
		if e.W < m[i*k+j] {
			m[i*k+j], m[j*k+i] = e.W, e.W
		}
	}
	for via := 0; via < k; via++ {
		for i := 0; i < k; i++ {
			d := m[i*k+via]
			if d == graph.Inf {
				continue
			}
			for j := 0; j < k; j++ {
				if s := d + m[via*k+j]; s < m[i*k+j] {
					m[i*k+j] = s
				}
			}
		}
	}
	n.pmat = m
	return &n
}

// goStale returns the stale successor (or rebuilds immediately when the
// policy says so).
func (o *Oracle) goStale(g graph.Topology) *Oracle {
	if o.opts.RebuildAfter <= 1 {
		return Build(g, o.opts)
	}
	return &Oracle{opts: o.opts, stale: true, staleCount: 1, cur: g}
}

// diff compares g against the oracle's current graph over the touched
// rows: removed reports any vanished or re-weighed halfedge; adds returns
// the new edges in canonical form, deduplicated.
func (o *Oracle) diff(g graph.Topology, touched []int) (adds []graph.Edge, removed bool) {
	var seen map[[2]int]bool
	curN := 0
	if o.cur != nil {
		curN = o.cur.N()
	}
	for _, v := range touched {
		if v < 0 || v >= g.N() {
			continue
		}
		newRow := g.Neighbors(v)
		var oldRow []graph.Halfedge
		if v < curN {
			oldRow = o.cur.Neighbors(v)
		}
		for _, oh := range oldRow {
			found := false
			for _, nh := range newRow {
				if nh.To == oh.To && nh.W == oh.W {
					found = true
					break
				}
			}
			if !found {
				return nil, true
			}
		}
		for _, nh := range newRow {
			found := false
			for _, oh := range oldRow {
				if oh.To == nh.To && oh.W == nh.W {
					found = true
					break
				}
			}
			if !found {
				e := graph.NewEdge(v, nh.To, nh.W)
				key := [2]int{e.U, e.V}
				if seen == nil {
					seen = make(map[[2]int]bool)
				}
				if !seen[key] {
					seen[key] = true
					adds = append(adds, e)
				}
			}
		}
	}
	return adds, false
}

// Stats describes the oracle's size and maintenance state.
type Stats struct {
	// Vertices is the labeled vertex count (of the build graph).
	Vertices int
	// Entries is the total number of (hub, dist) label entries.
	Entries int
	// MaxLabel is the largest per-vertex label run.
	MaxLabel int
	// BytesPerVertex is the label storage footprint (span table + hub
	// ranks + distances) divided by Vertices.
	BytesPerVertex float64
	// PatchEdges / PatchPortals describe the incremental patch set.
	PatchEdges   int
	PatchPortals int
	// Stale reports fallback mode; StaleCommits how many commits it has
	// persisted (rebuild at RebuildAfter).
	Stale        bool
	StaleCommits int
}

// Stats returns the oracle's size and state counters.
func (o *Oracle) Stats() Stats {
	st := Stats{
		Vertices:     o.n0,
		Entries:      len(o.hubs),
		PatchEdges:   len(o.patch),
		PatchPortals: len(o.pends),
		Stale:        o.stale,
		StaleCommits: o.staleCount,
	}
	for _, s := range o.spans {
		if int(s.cnt) > st.MaxLabel {
			st.MaxLabel = int(s.cnt)
		}
	}
	if o.n0 > 0 {
		st.BytesPerVertex = float64(len(o.hubs)*4+len(o.dists)*8+len(o.spans)*8) / float64(o.n0)
	}
	return st
}
