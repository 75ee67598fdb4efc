package graph

import (
	"math"
)

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// The methods below are conveniences over the reusable Searcher
// (searcher.go) for one-off searches on a *Graph: each borrows a pooled
// Searcher, so the steady-state allocation count is zero apart from the
// distance slice Dijkstra returns. Anything that issues many searches, or
// wants a ball (Searcher.Ball, Searcher.HopBall), holds its own Searcher
// and reads the Searcher-owned result slice; there is no map-returning
// form.

// Dijkstra returns the shortest-path distances from src to every vertex
// (Inf for unreachable vertices). Edge weights must be non-negative.
func (g *Graph) Dijkstra(src int) []float64 {
	s := AcquireSearcher(g.n)
	dist := make([]float64, g.n)
	s.Dijkstra(g, src, Inf, dist)
	ReleaseSearcher(s)
	return dist
}

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

// FloydWarshall computes all-pairs shortest path distances; O(n^3), intended
// for cross-checking Dijkstra in tests on small graphs.
func (g *Graph) FloydWarshall() [][]float64 {
	d := make([][]float64, g.n)
	for i := range d {
		d[i] = make([]float64, g.n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = Inf
			}
		}
	}
	for u, hs := range g.adj {
		for _, h := range hs {
			if h.W < d[u][h.To] {
				d[u][h.To] = h.W
			}
		}
	}
	for k := 0; k < g.n; k++ {
		for i := 0; i < g.n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < g.n; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}
