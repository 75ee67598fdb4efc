package graph

// Bidirectional bounded point-to-point search — the blind kernel behind
// DijkstraTarget and PathTo, i.e. behind every "is there a path of length
// ≤ bound?" query the builders ask: the greedy acceptance rule
// (greedy.Accept, hence SEQ-GREEDY, core.Build, and dynamic repair) and
// stretch verification (metrics). It needs nothing but non-negative
// weights, so it also serves routing.Router when the router is not
// declared Euclidean. The serving layer's /route runs the goal-directed
// kernel in astar.go instead.
//
// The kernel grows a Dijkstra frontier from both endpoints at once — the
// graph is undirected, so the backward search reuses the same adjacency —
// expanding, at each step, the side with the smaller frontier (fewer
// labeled-but-unsettled vertices). The frontier is the marginal settling
// cost per unit of search radius, so balancing frontiers rather than radii
// adapts the radius split to geometry: a destination in a sparse corner
// gets the larger share of the radius budget. μ tracks the best meeting
// seen so far: whenever a relaxation labels a vertex that the opposite
// frontier has already labeled, the concatenated distance is a candidate.
// The search stops when
//
//	minF + minB ≥ μ   (μ is provably the exact distance), or
//	minF + minB > bound (no path of length ≤ bound exists),
//
// or when either frontier empties. The stop rule is valid under any
// alternation policy: within one side, popped keys are non-decreasing, so
// minF + minB is a lower bound on any path yet to be discovered.
//
// Compared to the unidirectional kernel, which settles the full distance
// ball of radius min(d, bound) around the source, the two frontiers each
// reach only about half that radius. The saving is dimension-dependent:
// two half-radius balls hold ~1/2 the vertices of the full ball in the
// plane and ~1/4 in 3-D (nothing in a degenerate 1-D corridor, and less
// near deployment boundaries, where clipped balls grow quasi-linearly).
// TestBidiSettlesFewer pins the aggregate settled-vertex ratio across 2-D
// and 3-D workloads; `make bench` shows the wall-clock consequence.
//
// The loop is written once, over a rowView (searcher.go): the topology is
// resolved to its concrete representation once per search and each settled
// vertex's row is read through an inlined accessor — a slice of the CSR
// halfedge slab for a *Frozen, the adjacency slice for a *Graph — so the
// serving layer (whose snapshots are always *Frozen) and the builders
// (which search the *Graph they are mutating) run the same code with no
// interface call per settled vertex. Equivalence to the unidirectional
// reference kernel on both representations is pinned by the differential
// fuzz suite in bidi_test.go; TestBidiSettlesFewer pins that both settle
// identical vertex counts.

// biInit primes both frontiers for a point-to-point search on an n-vertex
// topology. Forward state (seen/dist/prev/heap) seeds at src, backward
// state (seenB/distB/prevB/heapB) at dst; both share one epoch.
func (s *Searcher) biInit(n, src, dst int) {
	s.begin(n)
	s.heapB = s.heapB[:0]
	s.seen[src] = s.epoch
	s.dist[src] = 0
	s.prev[src] = -1
	heapPush(&s.heap, 0, int32(src))
	s.seenB[dst] = s.epoch
	s.distB[dst] = 0
	s.prevB[dst] = -1
	heapPush(&s.heapB, 0, int32(dst))
}

// biSearch runs the bidirectional bounded search from src to dst (src !=
// dst). It returns the meeting vertex and the meeting distance μ, or
// (-1, Inf) when no path of length ≤ bound exists — in particular when dst
// is not a vertex of g. With existOnly the search stops at the first
// meeting within the bound, so μ is an upper bound rather than exact. On
// success the path is prev-chain(meet)..src reversed, then
// prevB-chain(meet)..dst — the shortest one unless existOnly, and of
// weight at most μ either way; relaxations only ever come from settled
// vertices, whose distances are final, so both chains are consistent with
// the final labels.
func (s *Searcher) biSearch(g Topology, src, dst int, bound float64, existOnly bool) (int32, float64) {
	s.stats.Searches++
	if dst < 0 || dst >= g.N() {
		return -1, Inf
	}
	rv := viewOf(g)
	s.biInit(g.N(), src, dst)
	mu := Inf
	meet := int32(-1)
	var settledF, settledB int64
	labeledF, labeledB := int64(1), int64(1)
	for len(s.heap) > 0 && len(s.heapB) > 0 {
		if sum := s.heap[0].dist + s.heapB[0].dist; sum >= mu || sum > bound {
			break
		}
		if existOnly && meet >= 0 && mu <= bound {
			break // a path within the bound exists; minimality not required
		}
		if labeledF-settledF <= labeledB-settledB {
			it := heapPop(&s.heap)
			v := int(it.v)
			if it.dist > s.dist[v] {
				continue // stale entry: v already settled closer
			}
			settledF++
			topB := s.heapB[0].dist // fixed while this side expands
			for _, h := range rv.row(v) {
				nd := it.dist + h.W
				if nd > bound {
					continue
				}
				if s.seen[h.To] == s.epoch {
					if s.dist[h.To] <= nd {
						continue
					}
				} else {
					s.seen[h.To] = s.epoch
					labeledF++
				}
				s.dist[h.To] = nd
				s.prev[h.To] = int32(v)
				if s.seenB[h.To] == s.epoch {
					if m := nd + s.distB[h.To]; m < mu {
						mu, meet = m, int32(h.To)
					}
				}
				// Push-prune: expanding this label could only reach paths of
				// length >= nd+topB; if that already exceeds min(mu, bound)
				// the label still serves as a meeting candidate (stored
				// above) but never needs to settle.
				if pb := nd + topB; pb <= bound && pb < mu {
					heapPush(&s.heap, nd, int32(h.To))
				}
			}
		} else {
			it := heapPop(&s.heapB)
			v := int(it.v)
			if it.dist > s.distB[v] {
				continue
			}
			settledB++
			topF := s.heap[0].dist
			for _, h := range rv.row(v) {
				nd := it.dist + h.W
				if nd > bound {
					continue
				}
				if s.seenB[h.To] == s.epoch {
					if s.distB[h.To] <= nd {
						continue
					}
				} else {
					s.seenB[h.To] = s.epoch
					labeledB++
				}
				s.distB[h.To] = nd
				s.prevB[h.To] = int32(v)
				if s.seen[h.To] == s.epoch {
					if m := nd + s.dist[h.To]; m < mu {
						mu, meet = m, int32(h.To)
					}
				}
				if pf := nd + topF; pf <= bound && pf < mu {
					heapPush(&s.heapB, nd, int32(h.To))
				}
			}
		}
	}
	s.stats.Settled += settledF + settledB
	if mu > bound {
		return -1, Inf
	}
	return meet, mu
}

// DijkstraTarget returns the shortest-path distance from src to dst in g,
// abandoning the search once no path of length at most bound can exist.
// The boolean result reports whether a path of length at most bound
// exists. This is the primitive behind every greedy "is there a t-spanner
// path already?" query; it runs bidirectionally (see the package comment
// at the top of this file).
func (s *Searcher) DijkstraTarget(g Topology, src, dst int, bound float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	meet, mu := s.biSearch(g, src, dst, bound, false)
	return mu, meet >= 0
}

// PathTo returns the vertex sequence of a shortest src→dst path of length
// at most bound, with its length. The path slice is freshly allocated (it
// outlives the next search); scratch state is still reused. Hot loops that
// can recycle the result should call AppendPathTo instead.
func (s *Searcher) PathTo(g Topology, src, dst int, bound float64) ([]int, float64, bool) {
	path, d, ok := s.AppendPathTo(nil, g, src, dst, bound)
	if !ok {
		return nil, Inf, false
	}
	return path, d, true
}

// AppendPathTo is PathTo in append style: the path is appended to buf
// (which may be nil) and the extended slice returned, alongside the path
// length and whether a path of length at most bound exists. When not
// found, buf is returned unchanged. The buffer is grown with a single
// exactly-sized allocation when its capacity does not suffice, so a caller
// reusing a warmed buffer performs zero allocations per route — this is
// the variant routing.Router runs on when it is not declared Euclidean
// (AppendAStarPathTo is its goal-directed twin).
func (s *Searcher) AppendPathTo(buf []int, g Topology, src, dst int, bound float64) ([]int, float64, bool) {
	if src == dst {
		return append(buf, src), 0, true
	}
	meet, mu := s.biSearch(g, src, dst, bound, false)
	if meet < 0 {
		return buf, Inf, false
	}
	return s.appendMeeting(buf, meet), mu, true
}

// AppendPathWithin is AppendPathTo for callers that need some path of
// length at most bound rather than the shortest: like ReachableWithin it
// stops at the first meeting within the bound, and appends the walk the
// two prev chains give through it. Its weight is at most bound, and it is
// found exactly when ReachableWithin reports true. A label only falls and
// a tie never relinks, so a chain cannot cycle, even across the
// zero-weight edges of coincident points; the two halves may still share
// a vertex, so the walk can repeat one.
func (s *Searcher) AppendPathWithin(buf []int, g Topology, src, dst int, bound float64) ([]int, bool) {
	if src == dst {
		return append(buf, src), true
	}
	meet, _ := s.biSearch(g, src, dst, bound, true)
	if meet < 0 {
		return buf, false
	}
	return s.appendMeeting(buf, meet), true
}

// appendMeeting appends the src→dst walk through meet that the last
// biSearch's prev chains give.
func (s *Searcher) appendMeeting(buf []int, meet int32) []int {
	// Stitch the two prev trees: count both chain lengths first so the
	// buffer grows with one exact allocation, then fill the forward half
	// backwards from the meeting vertex and the backward half forwards.
	cf := 0
	for x := meet; x != -1; x = s.prev[x] {
		cf++
	}
	cb := 0
	for x := meet; x != -1; x = s.prevB[x] {
		cb++
	}
	base := len(buf)
	buf = extendPath(buf, cf+cb-1) // meet counted once
	i := base + cf - 1
	for x := meet; x != -1; x = s.prev[x] {
		buf[i] = int(x)
		i--
	}
	i = base + cf
	for x := s.prevB[meet]; x != -1; x = s.prevB[x] {
		buf[i] = int(x)
		i++
	}
	return buf
}

// extendPath returns buf lengthened by k slots for a path to be filled in,
// growing it with one exactly-sized allocation when its capacity does not
// suffice — so a warmed buffer costs no allocation.
func extendPath(buf []int, k int) []int {
	n := len(buf) + k
	if cap(buf) < n {
		nb := make([]int, n)
		copy(nb, buf)
		return nb
	}
	return buf[:n]
}

// ReachableWithin reports whether a path of length at most bound connects
// src and dst — DijkstraTarget without the exact distance. The search
// stops at the first meeting within the bound instead of running on until
// the meeting is provably minimal, which skips the endgame entirely on
// accept-style probes; the boolean is identical to DijkstraTarget's. This
// is the primitive greedy.Accept runs on: SEQ-GREEDY, the relaxed
// algorithm's redundancy filter, and the dynamic engine's repair replay
// only ever need existence.
func (s *Searcher) ReachableWithin(g Topology, src, dst int, bound float64) bool {
	if src == dst {
		return true
	}
	meet, _ := s.biSearch(g, src, dst, bound, true)
	return meet >= 0
}
