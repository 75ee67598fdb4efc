package graph

import "sync"

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
// pinned by test rather than benchmark noise. BFS dequeues (HopsTo) count
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
// Kernels whose topology argument is the concrete *Frozen take a
// devirtualized fast path that walks the CSR (offset, degree) row table and
// halfedge slab directly, with no interface call per settled vertex; the
// generic loop serves *Graph and any other Topology. The dispatch happens
// once per search.
//
// A Searcher is not safe for concurrent use; give each goroutine its own
// (see metrics.StretchParallel) or use the package-level pool via the
// Graph.Dijkstra* convenience methods. The graphs passed to a Searcher's
// methods may differ call to call — the scratch arrays grow to the largest
// vertex count seen.
type Searcher struct {
	epoch uint32
	seen  []uint32 // seen[v] == epoch: forward label of v is valid this search
	done  []uint32 // done[v] == epoch: v is settled (single-frontier kernels)
	dist  []float64
	hops  []int32
	prev  []int32
	heap  []heapItem
	// Backward-frontier label set, used only by the bidirectional kernels.
	// Stamped with the same epoch as the forward set.
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

// DijkstraTargetUni is the unidirectional bounded point-to-point kernel:
// the shortest-path distance from src to dst in g, abandoning the search
// once all frontier labels exceed bound; the boolean reports whether a path
// of length at most bound exists. It settles the full distance ball around
// src up to min(d(src,dst), bound).
//
// The production kernel is the bidirectional DijkstraTarget, which answers
// the same query while settling roughly half the vertices (two half-radius
// balls); this one is retained as the independent reference the
// differential tests and the settled-work comparison (Stats) pin the
// bidirectional kernel against.
func (s *Searcher) DijkstraTargetUni(g Topology, src, dst int, bound float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	s.stats.Searches++
	s.begin(g.N())
	s.label(src, 0)
	heapPush(&s.heap, 0, int32(src))
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		v := int(it.v)
		if s.done[v] == s.epoch {
			continue
		}
		s.stats.Settled++
		if v == dst {
			return it.dist, true
		}
		s.done[v] = s.epoch
		for _, h := range g.Neighbors(v) {
			if nd := it.dist + h.W; nd <= bound && s.label(h.To, nd) {
				heapPush(&s.heap, nd, int32(h.To))
			}
		}
	}
	return Inf, false
}

// Ball runs a bounded Dijkstra from src and returns every vertex within
// distance bound (inclusive) with its distance, in settling order. The
// returned slice is owned by the Searcher and valid only until its next
// search; callers that need to keep it must copy.
func (s *Searcher) Ball(g Topology, src int, bound float64) []VertexDist {
	s.stats.Searches++
	s.begin(g.N())
	s.ball = s.ball[:0]
	s.label(src, 0)
	heapPush(&s.heap, 0, int32(src))
	if f, ok := g.(*Frozen); ok {
		s.ballFrozen(f, bound)
	} else {
		s.ballTopology(g, bound)
	}
	return s.ball
}

// ballTopology is the generic Ball loop.
func (s *Searcher) ballTopology(g Topology, bound float64) {
	settled := int64(0)
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		v := int(it.v)
		if s.done[v] == s.epoch {
			continue
		}
		s.done[v] = s.epoch
		settled++
		s.ball = append(s.ball, VertexDist{V: v, D: it.dist})
		for _, h := range g.Neighbors(v) {
			if nd := it.dist + h.W; nd <= bound && s.label(h.To, nd) {
				heapPush(&s.heap, nd, int32(h.To))
			}
		}
	}
	s.stats.Settled += settled
}

// ballFrozen is the Ball loop devirtualized over the CSR representation.
func (s *Searcher) ballFrozen(f *Frozen, bound float64) {
	settled := int64(0)
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		v := int(it.v)
		if s.done[v] == s.epoch {
			continue
		}
		s.done[v] = s.epoch
		settled++
		s.ball = append(s.ball, VertexDist{V: v, D: it.dist})
		r := f.rows[v]
		for _, h := range f.slab[r.off : r.off+r.deg] {
			if nd := it.dist + h.W; nd <= bound && s.label(h.To, nd) {
				heapPush(&s.heap, nd, int32(h.To))
			}
		}
	}
	s.stats.Settled += settled
}

// Dijkstra fills out with the shortest-path distance from src to every
// vertex (Inf for unreachable ones), skipping expansion beyond bound.
// len(out) must be g.N().
func (s *Searcher) Dijkstra(g Topology, src int, bound float64, out []float64) {
	s.stats.Searches++
	s.begin(g.N())
	for i := range out {
		out[i] = Inf
	}
	s.label(src, 0)
	heapPush(&s.heap, 0, int32(src))
	settled := int64(0)
	if f, ok := g.(*Frozen); ok {
		for len(s.heap) > 0 {
			it := heapPop(&s.heap)
			v := int(it.v)
			if s.done[v] == s.epoch {
				continue
			}
			s.done[v] = s.epoch
			settled++
			out[v] = it.dist
			r := f.rows[v]
			for _, h := range f.slab[r.off : r.off+r.deg] {
				if nd := it.dist + h.W; nd <= bound && s.label(h.To, nd) {
					heapPush(&s.heap, nd, int32(h.To))
				}
			}
		}
	} else {
		for len(s.heap) > 0 {
			it := heapPop(&s.heap)
			v := int(it.v)
			if s.done[v] == s.epoch {
				continue
			}
			s.done[v] = s.epoch
			settled++
			out[v] = it.dist
			for _, h := range g.Neighbors(v) {
				if nd := it.dist + h.W; nd <= bound && s.label(h.To, nd) {
					heapPush(&s.heap, nd, int32(h.To))
				}
			}
		}
	}
	s.stats.Settled += settled
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
	s.stats.Searches++
	s.begin(g.N())
	s.label(src, 0)
	heapPush(&s.heap, 0, int32(src))
	if f, ok := g.(*Frozen); ok {
		s.prunedFrozen(f, bound, visit)
	} else {
		s.prunedTopology(g, bound, visit)
	}
}

// prunedTopology is the generic DijkstraPruned loop.
func (s *Searcher) prunedTopology(g Topology, bound float64, visit func(v int, d float64) bool) {
	settled := int64(0)
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		v := int(it.v)
		if s.done[v] == s.epoch {
			continue
		}
		s.done[v] = s.epoch
		settled++
		if !visit(v, it.dist) {
			continue
		}
		for _, h := range g.Neighbors(v) {
			if nd := it.dist + h.W; nd <= bound && s.label(h.To, nd) {
				heapPush(&s.heap, nd, int32(h.To))
			}
		}
	}
	s.stats.Settled += settled
}

// prunedFrozen is the DijkstraPruned loop devirtualized over the CSR
// representation.
func (s *Searcher) prunedFrozen(f *Frozen, bound float64, visit func(v int, d float64) bool) {
	settled := int64(0)
	for len(s.heap) > 0 {
		it := heapPop(&s.heap)
		v := int(it.v)
		if s.done[v] == s.epoch {
			continue
		}
		s.done[v] = s.epoch
		settled++
		if !visit(v, it.dist) {
			continue
		}
		r := f.rows[v]
		for _, h := range f.slab[r.off : r.off+r.deg] {
			if nd := it.dist + h.W; nd <= bound && s.label(h.To, nd) {
				heapPush(&s.heap, nd, int32(h.To))
			}
		}
	}
	s.stats.Settled += settled
}

// VertexHop is one vertex reached by a hop-bounded BFS, with its hop count
// from the source.
type VertexHop struct {
	V    int
	Hops int
}

// HopBall runs a breadth-first search from src and returns every vertex
// within maxHops edges, in BFS order (src first, at 0 hops). It is the
// k-hop subgraph extraction behind /analyze/around: the caller gets the
// ball members with their hop layers and induces edges among them
// separately. The returned slice is owned by the Searcher and valid only
// until its next search; callers that need to keep it must copy.
// maxHops <= 0 returns just the source.
func (s *Searcher) HopBall(g Topology, src, maxHops int) []VertexHop {
	s.stats.Searches++
	s.begin(g.N())
	s.hball = s.hball[:0]
	s.queue = s.queue[:0]
	s.queue = append(s.queue, int32(src))
	s.seen[src] = s.epoch
	s.hops[src] = 0
	s.hball = append(s.hball, VertexHop{V: src})
	if f, ok := g.(*Frozen); ok {
		s.hopBallFrozen(f, maxHops)
	} else {
		s.hopBallTopology(g, maxHops)
	}
	return s.hball
}

// hopBallTopology is the generic HopBall loop.
func (s *Searcher) hopBallTopology(g Topology, maxHops int) {
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		hv := s.hops[v]
		if int(hv) >= maxHops {
			continue // ball boundary: member, but not expanded
		}
		s.stats.Settled++
		for _, h := range g.Neighbors(int(v)) {
			if s.seen[h.To] == s.epoch {
				continue
			}
			s.seen[h.To] = s.epoch
			s.hops[h.To] = hv + 1
			s.queue = append(s.queue, int32(h.To))
			s.hball = append(s.hball, VertexHop{V: h.To, Hops: int(hv) + 1})
		}
	}
}

// hopBallFrozen is the HopBall loop devirtualized over the CSR
// representation.
func (s *Searcher) hopBallFrozen(f *Frozen, maxHops int) {
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		hv := s.hops[v]
		if int(hv) >= maxHops {
			continue
		}
		s.stats.Settled++
		r := f.rows[v]
		for _, h := range f.slab[r.off : r.off+r.deg] {
			if s.seen[h.To] == s.epoch {
				continue
			}
			s.seen[h.To] = s.epoch
			s.hops[h.To] = hv + 1
			s.queue = append(s.queue, int32(h.To))
			s.hball = append(s.hball, VertexHop{V: h.To, Hops: int(hv) + 1})
		}
	}
}

// HopsTo returns the hop distance (unweighted) from src to dst, with early
// exit as soon as dst enters the BFS frontier.
func (s *Searcher) HopsTo(g Topology, src, dst int) (int, bool) {
	if src == dst {
		return 0, true
	}
	s.stats.Searches++
	s.begin(g.N())
	s.queue = s.queue[:0]
	s.queue = append(s.queue, int32(src))
	s.seen[src] = s.epoch
	s.hops[src] = 0
	if f, ok := g.(*Frozen); ok {
		return s.hopsFrozen(f, dst)
	}
	return s.hopsTopology(g, dst)
}

// hopsTopology is the generic BFS loop behind HopsTo.
func (s *Searcher) hopsTopology(g Topology, dst int) (int, bool) {
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		hv := s.hops[v]
		s.stats.Settled++
		for _, h := range g.Neighbors(int(v)) {
			if s.seen[h.To] == s.epoch {
				continue
			}
			if h.To == dst {
				return int(hv) + 1, true
			}
			s.seen[h.To] = s.epoch
			s.hops[h.To] = hv + 1
			s.queue = append(s.queue, int32(h.To))
		}
	}
	return 0, false
}

// hopsFrozen is the BFS loop devirtualized over the CSR representation.
func (s *Searcher) hopsFrozen(f *Frozen, dst int) (int, bool) {
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		hv := s.hops[v]
		s.stats.Settled++
		r := f.rows[v]
		for _, h := range f.slab[r.off : r.off+r.deg] {
			if s.seen[h.To] == s.epoch {
				continue
			}
			if h.To == dst {
				return int(hv) + 1, true
			}
			s.seen[h.To] = s.epoch
			s.hops[h.To] = hv + 1
			s.queue = append(s.queue, int32(h.To))
		}
	}
	return 0, false
}

// searcherPool recycles Searchers across the Graph.Dijkstra* convenience
// methods so their steady-state allocation count is zero.
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
