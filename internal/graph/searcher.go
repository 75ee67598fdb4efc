package graph

import (
	"fmt"
	"sync"
)

// VertexDist is one vertex reached by a bounded search, with its
// shortest-path distance from the source.
type VertexDist struct {
	V int
	D float64
}

// heapItem is an entry of the Searcher's hand-rolled binary heap. Keeping
// the struct concrete (no interface boxing, unlike container/heap) is what
// makes pushes and pops allocation-free.
type heapItem struct {
	dist float64
	v    int32
}

// heapPush inserts (d, v). The heap is passed by pointer so the forward and
// backward frontiers of the bidirectional kernels share one implementation
// without boxing.
func heapPush(hp *[]heapItem, d float64, v int32) {
	h := append(*hp, heapItem{dist: d, v: v})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	*hp = h
}

// heapPop removes and returns the minimum-distance entry.
func heapPop(hp *[]heapItem) heapItem {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].dist < h[l].dist {
			m = r
		}
		if h[i].dist <= h[m].dist {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*hp = h
	return top
}

// SearchStats counts the work a Searcher has performed since construction
// or the last ResetStats. Settled is the number of vertices expanded
// (popped from a frontier and relaxed) across all searches — the quantity
// the bidirectional kernels halve relative to the unidirectional ones,
// pinned by test rather than benchmark noise. BFS dequeues (HopBall) count
// as settles too.
type SearchStats struct {
	Searches int64
	Settled  int64
}

// Searcher is reusable scratch state for graph searches: epoch-stamped
// visited/distance arrays (O(1) logical reset between searches), index-based
// binary heaps of (vertex, dist) pairs, and result buffers. The label state
// exists twice — a forward and a backward set — so the bidirectional
// point-to-point kernels (DijkstraTarget, PathTo) run both frontiers out of
// one scratch object. A Searcher performs zero steady-state allocations:
// after it has grown to the largest graph it has seen, every search reuses
// the same memory.
//
// Every kernel is written once, over a rowView: the topology argument is
// resolved to its concrete representation once per search, and the loop
// reads adjacency rows through an inlined two-branch accessor — the CSR
// (offset, degree) row table and halfedge slab of a *Frozen, or the
// adjacency slices of a *Graph — with no interface call per settled vertex.
//
// A Searcher is not safe for concurrent use; give each goroutine its own
// (see metrics.StretchParallel) or use the package-level pool via the
// Graph.Dijkstra* convenience methods. The graphs passed to a Searcher's
// methods may differ call to call — the scratch arrays grow to the largest
// vertex count seen.
type Searcher struct {
	epoch uint32
	seen  []uint32 // seen[v] == epoch: forward label of v is valid this search
	done  []uint32 // done[v] == epoch: v is settled (single-frontier kernels, A*)
	dist  []float64
	hops  []int32
	prev  []int32
	heap  []heapItem
	// Backward-frontier label set, used by the bidirectional kernels; the
	// goal-directed kernel (astar.go) caches its per-vertex potential in
	// seenB/distB instead. Stamped with the same epoch as the forward set.
	seenB []uint32
	distB []float64
	prevB []int32
	heapB []heapItem
	ball  []VertexDist
	hball []VertexHop
	queue []int32
	stats SearchStats
}

// NewSearcher returns a Searcher pre-sized for graphs of n vertices.
func NewSearcher(n int) *Searcher {
	s := &Searcher{}
	s.grow(n)
	return s
}

// Stats returns the accumulated work counters.
func (s *Searcher) Stats() SearchStats { return s.stats }

// ResetStats zeroes the work counters.
func (s *Searcher) ResetStats() { s.stats = SearchStats{} }

// grow resizes the scratch arrays for graphs of n vertices.
func (s *Searcher) grow(n int) {
	s.seen = make([]uint32, n)
	s.done = make([]uint32, n)
	s.dist = make([]float64, n)
	s.hops = make([]int32, n)
	s.prev = make([]int32, n)
	s.seenB = make([]uint32, n)
	s.distB = make([]float64, n)
	s.prevB = make([]int32, n)
	s.epoch = 0
}

// begin starts a new search over an n-vertex graph: one counter bump
// invalidates every stamp from previous searches.
func (s *Searcher) begin(n int) {
	if len(s.seen) < n {
		s.grow(n)
	}
	s.epoch++
	if s.epoch == 0 { // stamp wrap-around: stale stamps could collide
		clear(s.seen)
		clear(s.done)
		clear(s.seenB)
		s.epoch = 1
	}
	s.heap = s.heap[:0]
}

// label relaxes v to forward distance d, reporting whether that improved
// its label.
func (s *Searcher) label(v int, d float64) bool {
	if s.seen[v] == s.epoch && s.dist[v] <= d {
		return false
	}
	s.seen[v] = s.epoch
	s.dist[v] = d
	return true
}

// rowView is how a kernel reads adjacency: the topology resolved to one of
// the two concrete representations (exactly one field is set). *Graph and
// *Frozen are the only Topology implementations, so the kernels need no
// interface fallback and row stays within the inlining budget.
type rowView struct {
	f *Frozen
	g *Graph
}

// viewOf resolves g to its concrete representation, once per search.
func viewOf(g Topology) rowView {
	switch t := g.(type) {
	case *Frozen:
		return rowView{f: t}
	case *Graph:
		return rowView{g: t}
	}
	panic(fmt.Sprintf("graph: Searcher does not support Topology %T", g))
}

// row returns v's adjacency row. The slice is owned by the topology.
func (r rowView) row(v int) []Halfedge {
	if r.f != nil {
		return r.f.row(v)
	}
	return r.g.adj[v]
}

// start begins a single-frontier Dijkstra from src on an n-vertex graph.
func (s *Searcher) start(n, src int) {
	s.stats.Searches++
	s.begin(n)
	s.label(src, 0)
	heapPush(&s.heap, 0, int32(src))
}

// settle pops the closest unsettled vertex off the forward heap and marks
// it settled; ok is false once the frontier is exhausted.
func (s *Searcher) settle() (v int, d float64, ok bool) {
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		if v := int(it.v); s.done[v] != s.epoch {
			s.done[v] = s.epoch
			s.stats.Settled++
			return v, it.dist, true
		}
	}
	return 0, 0, false
}

// relax pushes every label improvement within bound along row, the
// adjacency of a vertex settled at distance d.
func (s *Searcher) relax(row []Halfedge, d, bound float64) {
	for _, h := range row {
		if nd := d + h.W; nd <= bound && s.label(h.To, nd) {
			heapPush(&s.heap, nd, int32(h.To))
		}
	}
}

// Ball runs a bounded Dijkstra from src and returns every vertex within
// distance bound (inclusive) with its distance, in settling order. The
// returned slice is owned by the Searcher and valid only until its next
// search; callers that need to keep it must copy.
func (s *Searcher) Ball(g Topology, src int, bound float64) []VertexDist {
	rv := viewOf(g)
	s.start(g.N(), src)
	s.ball = s.ball[:0]
	for v, d, ok := s.settle(); ok; v, d, ok = s.settle() {
		s.ball = append(s.ball, VertexDist{V: v, D: d})
		s.relax(rv.row(v), d, bound)
	}
	return s.ball
}

// DijkstraPruned runs a bounded Dijkstra from src, invoking visit on every
// settled vertex in nondecreasing distance order (src first, at distance 0).
// visit reports whether to expand v's outgoing edges; returning false prunes
// the search below v — v stays settled, but no label improvement propagates
// through it. This is the building block of pruned landmark labeling
// (internal/labels): the visit callback consults the labels built so far and
// cuts off every branch an earlier hub already covers, which is what keeps
// label sets near-logarithmic instead of linear.
func (s *Searcher) DijkstraPruned(g Topology, src int, bound float64, visit func(v int, d float64) bool) {
	rv := viewOf(g)
	s.start(g.N(), src)
	for v, d, ok := s.settle(); ok; v, d, ok = s.settle() {
		if visit(v, d) {
			s.relax(rv.row(v), d, bound)
		}
	}
}

// VertexHop is one vertex reached by a hop-bounded BFS, with its hop count
// from the source.
type VertexHop struct {
	V    int
	Hops int
}

// startBFS begins a breadth-first search from src on an n-vertex graph.
func (s *Searcher) startBFS(n, src int) {
	s.stats.Searches++
	s.begin(n)
	s.queue = append(s.queue[:0], int32(src))
	s.seen[src] = s.epoch
	s.hops[src] = 0
}

// HopBall runs a breadth-first search from src and returns every vertex
// within maxHops edges, in BFS order (src first, at 0 hops). It is the
// k-hop subgraph extraction behind /analyze/around and the flooding gather
// of internal/sim: the caller gets the ball members with their hop layers
// and induces edges among them separately. The returned slice is owned by
// the Searcher and valid only until its next search; callers that need to
// keep it must copy. maxHops <= 0 returns just the source; there is no
// "unbounded" sentinel — pass g.N(), which no hop distance reaches.
func (s *Searcher) HopBall(g Topology, src, maxHops int) []VertexHop {
	s.hball = s.hball[:0]
	s.HopWalk(g, src, maxHops, func(v, hops int) bool {
		s.hball = append(s.hball, VertexHop{V: v, Hops: hops})
		return true
	})
	return s.hball
}

// HopWalk visits HopBall's vertices in its order, each as the search
// first reaches it, and stops early once visit returns false: a caller
// looking for a known set of vertices walks only as deep as the farthest
// of them.
func (s *Searcher) HopWalk(g Topology, src, maxHops int, visit func(v, hops int) bool) {
	rv := viewOf(g)
	s.startBFS(g.N(), src)
	if !visit(src, 0) {
		return
	}
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		hv := s.hops[v]
		if int(hv) >= maxHops {
			continue // ball boundary: member, but not expanded
		}
		s.stats.Settled++
		for _, h := range rv.row(int(v)) {
			if s.seen[h.To] == s.epoch {
				continue
			}
			s.seen[h.To] = s.epoch
			s.hops[h.To] = hv + 1
			s.queue = append(s.queue, int32(h.To))
			if !visit(h.To, int(hv)+1) {
				return
			}
		}
	}
}

// searcherPool is the one pool of search scratch in the tree: builders,
// metrics, labels, routing, the serving layer and analytics all borrow
// from it, so their steady-state allocation count is zero. It allocates
// nothing until first use, keeps warmed scratch per P, and lets the GC
// drop idle searchers. A Searcher carries no graph state, so a borrowed
// one serves any graph, of any snapshot version.
var searcherPool = sync.Pool{New: func() interface{} { return new(Searcher) }}

// AcquireSearcher returns a pooled Searcher sized for n-vertex graphs.
// Release it with ReleaseSearcher when done.
func AcquireSearcher(n int) *Searcher {
	s := searcherPool.Get().(*Searcher)
	if len(s.seen) < n {
		s.grow(n)
	}
	return s
}

// ReleaseSearcher returns s to the pool. The caller must not retain s or
// any slice it returned (Ball results) past this call.
func ReleaseSearcher(s *Searcher) {
	searcherPool.Put(s)
}
