package graph

import (
	"math"

	"topoctl/internal/geom"
)

// Goal-directed point-to-point search — the kernel behind the serving
// layer's /route (the spanner path and the base-graph stretch
// denominator) and routing.Router once the router is declared Euclidean.
//
// The graphs this repository serves are geometric: every vertex has a
// position and, under the Euclidean metric, every edge weighs exactly the
// distance between its endpoints. The straight-line distance to the
// target, π_t(v) = ‖p_v − p_t‖, is then a lower bound on every remaining
// path (admissible) and satisfies π_t(u) ≤ w(u,v) + π_t(v) on every edge
// (consistent) — the triangle inequality the paper's stretch proofs run
// on. A unidirectional Dijkstra keyed by g + π therefore settles each
// vertex at most once, with its final distance, and may stop the moment
// the target is popped; the search grows an ellipse-like region around
// the segment src–dst instead of a ball around src. On an n=4,096
// expected-degree-8 plane instance that is 0.32× the bidirectional
// kernel's settled vertices on a 1.5-spanner and 0.20× on the base graph
// (TestAStarSettlesFewer).
//
// Precondition: every edge of g weighs at least the Euclidean distance
// between its endpoints' points. Weights of c·d^γ (the energy metric)
// break it for d < 1, and hand-built graphs with arbitrary weights may
// too; such graphs must use the blind kernels (DijkstraTarget, PathTo).
// π is scaled by (1 − 1e-9) so that float rounding in the distance
// computation can never make it inconsistent for weights computed as
// exact point distances. A nil pts means π ≡ 0: the kernel is then a plain
// unidirectional Dijkstra, exact on any non-negative weights.
//
// The potential is computed once per vertex per search and cached in the
// backward label set (distB, stamped by seenB), which a unidirectional
// search leaves unused, so A* adds no scratch array and keeps the
// Searcher's zero steady-state allocation contract.

// potentialScale shrinks π just below the straight-line distance; see the
// rounding note above.
const potentialScale = 1 - 1e-9

// potential returns π_target(v), computing and caching it on first use in
// this search.
func (s *Searcher) potential(pts []geom.Point, v int, target geom.Point) float64 {
	if pts == nil {
		return 0
	}
	if s.seenB[v] == s.epoch {
		return s.distB[v]
	}
	p := pts[v]
	var sq float64
	for i := range target {
		d := p[i] - target[i]
		sq += d * d
	}
	pi := math.Sqrt(sq) * potentialScale
	s.seenB[v] = s.epoch
	s.distB[v] = pi
	return pi
}

// aStar runs the goal-directed search from src to dst (src != dst) and
// returns dst's distance, or Inf when no path of length ≤ bound exists —
// in particular when dst is not a vertex of g. A label whose g + π exceeds
// bound is never pushed: no path through it can meet the bound. On success
// the shortest path is the prev chain from dst back to src.
func (s *Searcher) aStar(g Topology, pts []geom.Point, src, dst int, bound float64) float64 {
	s.stats.Searches++
	if dst < 0 || dst >= g.N() {
		return Inf
	}
	rv := viewOf(g)
	s.begin(g.N())
	var target geom.Point
	if pts != nil {
		target = pts[dst]
	}
	s.seen[src] = s.epoch
	s.dist[src] = 0
	s.prev[src] = -1
	heapPush(&s.heap, s.potential(pts, src, target), int32(src))
	for len(s.heap) > 0 {
		v := int(heapPop(&s.heap).v)
		if s.done[v] == s.epoch {
			continue // stale entry: v already settled
		}
		s.done[v] = s.epoch
		s.stats.Settled++
		d := s.dist[v]
		if v == dst {
			return d
		}
		for _, h := range rv.row(v) {
			nd := d + h.W
			// A settled label is final (π is consistent), so this test
			// also rejects every edge back into the settled region.
			if s.seen[h.To] == s.epoch && s.dist[h.To] <= nd {
				continue
			}
			f := nd + s.potential(pts, h.To, target)
			if f > bound {
				continue
			}
			s.seen[h.To] = s.epoch
			s.dist[h.To] = nd
			s.prev[h.To] = int32(v)
			heapPush(&s.heap, f, int32(h.To))
		}
	}
	return Inf
}

// AStarTarget returns the shortest-path distance from src to dst in g
// embedded at pts, and whether a path of length at most bound exists — the
// answer DijkstraTarget gives, found by goal-directed search. g must
// satisfy the precondition in the comment at the top of this file.
func (s *Searcher) AStarTarget(g Topology, pts []geom.Point, src, dst int, bound float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	d := s.aStar(g, pts, src, dst, bound)
	return d, d < Inf
}

// AppendAStarPathTo is AStarTarget with the path: the vertex sequence of a
// shortest src→dst path is appended to buf (which may be nil) and the
// extended slice returned, with its length and whether a path of length at
// most bound exists. When not found, buf is returned unchanged. Like
// AppendPathTo, the buffer grows with one exactly-sized allocation when
// its capacity does not suffice, so a warmed buffer costs zero
// allocations. Between paths of equal cost the two kernels may choose
// differently.
func (s *Searcher) AppendAStarPathTo(buf []int, g Topology, pts []geom.Point, src, dst int, bound float64) ([]int, float64, bool) {
	if src == dst {
		return append(buf, src), 0, true
	}
	d := s.aStar(g, pts, src, dst, bound)
	if d == Inf {
		return buf, Inf, false
	}
	verts := 0
	for x := int32(dst); x != -1; x = s.prev[x] {
		verts++
	}
	buf = extendPath(buf, verts)
	i := len(buf) - 1
	for x := int32(dst); x != -1; x = s.prev[x] {
		buf[i] = int(x)
		i--
	}
	return buf, d, true
}
