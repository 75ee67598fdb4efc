package graph

import (
	"math"
)

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// The methods below are conveniences over the reusable Searcher
// (searcher.go) for one-off point-to-point queries on a *Graph: each
// borrows a pooled Searcher, so the steady-state allocation count is zero.
// Anything that issues many searches, or wants a ball (Searcher.Ball,
// Searcher.HopBall), holds its own Searcher and reads the Searcher-owned
// result slice. The reference oracles the tests compare these kernels
// against (Floyd–Warshall, a heap-based Dijkstra) live in graphtest.

// DijkstraTarget returns the shortest-path distance from src to dst,
// abandoning the search once no path of length at most bound can exist.
// The boolean result reports whether a path of length at most bound
// exists. Callers that only need the boolean should use ReachableWithin.
func (g *Graph) DijkstraTarget(src, dst int, bound float64) (float64, bool) {
	s := AcquireSearcher(g.n)
	d, ok := s.DijkstraTarget(g, src, dst, bound)
	ReleaseSearcher(s)
	return d, ok
}

// ReachableWithin reports whether a path of length at most bound connects
// src and dst — the existence form of DijkstraTarget (the search stops at
// the first meeting within the bound). This is the primitive behind every
// greedy "is there a t-spanner path already?" query.
func (g *Graph) ReachableWithin(src, dst int, bound float64) bool {
	s := AcquireSearcher(g.n)
	ok := s.ReachableWithin(g, src, dst, bound)
	ReleaseSearcher(s)
	return ok
}
