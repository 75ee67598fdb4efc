// Package routing implements the routing schemes that motivate topology
// control (paper §1.3): shortest-path routing over a chosen topology, and
// the memoryless geographic schemes (greedy forwarding and compass routing)
// whose delivery behaviour is why the literature cares about spanner and
// planarity properties of control structures [9].
//
// The package is the application layer of the repository: examples and
// experiments use it to quantify what routing over a sparse spanner costs
// relative to the full network.
package routing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// ErrOutOfRange is returned (wrapped, with the offending endpoints) when a
// route request names a vertex outside [0, n). Callers distinguish it from
// other failures with errors.Is; the serving layer maps it to 400/404
// responses instead of treating a bad request as an internal error.
var ErrOutOfRange = errors.New("routing: endpoint out of range")

// Scheme selects a forwarding strategy.
type Scheme int

// Forwarding schemes.
const (
	// SchemeShortestPath routes along exact shortest paths (global
	// knowledge; the quality yardstick).
	SchemeShortestPath Scheme = iota + 1
	// SchemeGreedy is memoryless greedy geographic forwarding: always move
	// to the neighbor strictly closest (Euclidean) to the destination;
	// fails in a local minimum.
	SchemeGreedy
	// SchemeCompass is compass routing: move to the neighbor whose
	// direction minimizes the angle to the destination direction; fails
	// when it revisits a vertex (loop detection).
	SchemeCompass
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeShortestPath:
		return "shortest-path"
	case SchemeGreedy:
		return "greedy"
	case SchemeCompass:
		return "compass"
	default:
		return "unknown"
	}
}

// Route is the result of routing one packet.
type Route struct {
	// Delivered reports whether the packet reached its destination.
	Delivered bool
	// Path is the vertex sequence traversed (source first; for undelivered
	// packets, the prefix until failure).
	Path []int
	// Cost is the total edge weight traversed.
	Cost float64
}

// Hops returns the number of edges traversed.
func (r Route) Hops() int {
	if len(r.Path) == 0 {
		return 0
	}
	return len(r.Path) - 1
}

// DistanceOracle answers point-to-point distances over the router's
// topology without searching. Query returns the exact distance (graph.Inf
// when unreachable) and true when it can certify the answer; false means
// the caller must fall back to a direct search. internal/labels.Oracle is
// the implementation; the interface keeps routing free of that dependency.
type DistanceOracle interface {
	Query(s, t int) (float64, bool)
}

// Router routes packets over a fixed topology with node positions. Any
// read-only topology works: the serving layer hands it frozen (immutable
// CSR) snapshots, tests and experiments hand it mutable graphs.
type Router struct {
	g      graph.Topology
	pts    []geom.Point
	oracle DistanceOracle
	// euclid: every edge weighs at least its endpoints' distance, so the
	// searches run goal-directed (see SetEuclidean).
	euclid bool
}

// NewRouter builds a router for topology g embedded at pts.
func NewRouter(g graph.Topology, pts []geom.Point) (*Router, error) {
	if g.N() != len(pts) {
		return nil, fmt.Errorf("routing: %d vertices but %d points", g.N(), len(pts))
	}
	return &Router{g: g, pts: pts}, nil
}

// SetDistanceOracle attaches a distance oracle for Distance to consult
// before searching. The oracle must answer for the router's own topology;
// nil detaches. Set it before sharing the router across goroutines.
func (r *Router) SetDistanceOracle(o DistanceOracle) { r.oracle = o }

// SetEuclidean declares that every edge of the router's topology weighs at
// least the Euclidean distance between its endpoints' points — true of
// the paper's Euclidean metric, where an edge weighs exactly its length.
// The shortest-path scheme and Distance's search fallback then run A*
// with the straight-line potential (graph.Searcher.AStarTarget), which
// settles a fraction of what the blind bidirectional kernel does. An
// undeclared router keeps the blind kernel, which is exact on any
// non-negative weights (the energy metric c·d^γ weighs less than d for
// d < 1, which would make the potential overestimate). Set it before
// sharing the router across goroutines.
func (r *Router) SetEuclidean() { r.euclid = true }

// Distance returns the exact shortest-path distance from s to t over the
// router's topology: the attached oracle when it certifies the answer
// (allocation-free label intersection), otherwise one search with the
// caller's Searcher — A* when the router is declared Euclidean, the
// bidirectional Dijkstra otherwise. fromLabels reports which path
// answered — the value is exact either way, graph.Inf when unreachable.
func (r *Router) Distance(srch *graph.Searcher, s, t int) (d float64, fromLabels bool, err error) {
	if s < 0 || s >= r.g.N() || t < 0 || t >= r.g.N() {
		return 0, false, fmt.Errorf("%w: endpoints (%d,%d), n=%d", ErrOutOfRange, s, t, r.g.N())
	}
	if r.oracle != nil {
		if d, ok := r.oracle.Query(s, t); ok {
			return d, true, nil
		}
	}
	var ok bool
	if r.euclid {
		d, ok = srch.AStarTarget(r.g, r.pts, s, t, graph.Inf)
	} else {
		d, ok = srch.DijkstraTarget(r.g, s, t, graph.Inf)
	}
	if !ok {
		d = graph.Inf
	}
	return d, false, nil
}

// Route routes one packet from s to t under the scheme. Out-of-range
// endpoints yield an error wrapping ErrOutOfRange, never a zero Route.
func (r *Router) Route(scheme Scheme, s, t int) (Route, error) {
	if scheme == SchemeShortestPath {
		srch := graph.AcquireSearcher(r.g.N())
		defer graph.ReleaseSearcher(srch)
		return r.RouteWith(srch, scheme, s, t)
	}
	return r.RouteWith(nil, scheme, s, t)
}

// RouteWith is Route with a caller-supplied Searcher. Only the
// shortest-path scheme searches — the geographic schemes ignore srch, and
// it may be nil for them. Concurrent callers that route many packets hand
// the same Searcher to consecutive calls and skip the package-level pool
// entirely.
func (r *Router) RouteWith(srch *graph.Searcher, scheme Scheme, s, t int) (Route, error) {
	if s < 0 || s >= r.g.N() || t < 0 || t >= r.g.N() {
		return Route{}, fmt.Errorf("%w: endpoints (%d,%d), n=%d", ErrOutOfRange, s, t, r.g.N())
	}
	if s == t {
		return Route{Delivered: true, Path: []int{s}}, nil
	}
	switch scheme {
	case SchemeShortestPath:
		return r.shortest(srch, s, t), nil
	case SchemeGreedy:
		return r.greedy(s, t), nil
	case SchemeCompass:
		return r.compass(s, t), nil
	default:
		return Route{}, fmt.Errorf("routing: unknown scheme %d", scheme)
	}
}

// shortest routes along an exact shortest path: A* when the router is
// declared Euclidean, the bidirectional Dijkstra otherwise. Both size the
// result exactly, so a delivered route costs one allocation — the path
// the caller keeps.
func (r *Router) shortest(srch *graph.Searcher, s, t int) Route {
	var path []int
	var cost float64
	var ok bool
	if r.euclid {
		path, cost, ok = srch.AppendAStarPathTo(nil, r.g, r.pts, s, t, graph.Inf)
	} else {
		path, cost, ok = srch.AppendPathTo(nil, r.g, s, t, graph.Inf)
	}
	if !ok {
		return Route{Delivered: false, Path: []int{s}}
	}
	return Route{Delivered: true, Path: path, Cost: cost}
}

// greedy is memoryless greedy geographic forwarding.
func (r *Router) greedy(s, t int) Route {
	route := Route{Path: []int{s}}
	cur := s
	for cur != t && len(route.Path) <= r.g.N() {
		bestV, bestD := -1, geom.Dist(r.pts[cur], r.pts[t])
		var bestW float64
		for _, h := range r.g.Neighbors(cur) {
			if d := geom.Dist(r.pts[h.To], r.pts[t]); d < bestD {
				bestV, bestD, bestW = h.To, d, h.W
			}
		}
		if bestV == -1 {
			return route // local minimum
		}
		cur = bestV
		route.Path = append(route.Path, cur)
		route.Cost += bestW
	}
	route.Delivered = cur == t
	return route
}

// compass routes by angular proximity, failing on the first revisit.
func (r *Router) compass(s, t int) Route {
	route := Route{Path: []int{s}}
	visited := map[int]bool{s: true}
	cur := s
	for cur != t {
		bestV, bestA := -1, math.Inf(1)
		var bestW float64
		for _, h := range r.g.Neighbors(cur) {
			if h.To == t {
				bestV, bestA, bestW = t, -1, h.W
				break
			}
			a := geom.Angle(r.pts[cur], r.pts[t], r.pts[h.To])
			if a < bestA || (a == bestA && h.To < bestV) {
				bestV, bestA, bestW = h.To, a, h.W
			}
		}
		if bestV == -1 {
			return route // isolated
		}
		cur = bestV
		route.Path = append(route.Path, cur)
		route.Cost += bestW
		if cur != t && visited[cur] {
			return route // loop: compass routing failed
		}
		visited[cur] = true
	}
	route.Delivered = true
	return route
}

// Stats aggregates routing quality over a query workload.
type Stats struct {
	Scheme    Scheme
	Queries   int
	Delivered int
	// AvgCost and AvgHops are over delivered packets.
	AvgCost float64
	AvgHops float64
	// AvgStretch is the mean delivered cost over the full-graph shortest
	// path cost (requires the caller to supply base costs; 0 if absent).
	AvgStretch float64
}

// Query is a source/destination pair.
type Query struct{ S, T int }

// RandomQueries draws q distinct-endpoint queries uniformly.
func RandomQueries(n, q int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, 0, q)
	for len(out) < q {
		s, t := rng.Intn(n), rng.Intn(n)
		if s != t {
			out = append(out, Query{S: s, T: t})
		}
	}
	return out
}

// Evaluate routes the workload under the scheme. baseCosts, when non-nil,
// must hold the full-network shortest-path cost of each query (for the
// stretch column); entries <= 0 are skipped for stretch.
func (r *Router) Evaluate(scheme Scheme, queries []Query, baseCosts []float64) (Stats, error) {
	st := Stats{Scheme: scheme, Queries: len(queries)}
	var cost, hops, stretch float64
	var stretchN int
	for i, q := range queries {
		route, err := r.Route(scheme, q.S, q.T)
		if err != nil {
			return Stats{}, err
		}
		if !route.Delivered {
			continue
		}
		st.Delivered++
		cost += route.Cost
		hops += float64(route.Hops())
		if baseCosts != nil && i < len(baseCosts) && baseCosts[i] > 0 {
			stretch += route.Cost / baseCosts[i]
			stretchN++
		}
	}
	if st.Delivered > 0 {
		st.AvgCost = cost / float64(st.Delivered)
		st.AvgHops = hops / float64(st.Delivered)
	}
	if stretchN > 0 {
		st.AvgStretch = stretch / float64(stretchN)
	}
	return st, nil
}
