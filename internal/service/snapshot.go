package service

import (
	"fmt"
	"slices"
	"sync"

	"topoctl/internal/analyze"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/labels"
	"topoctl/internal/routing"
)

// Snapshot is one immutable, internally consistent view of the topology:
// slot-indexed node positions, the base connectivity graph and maintained
// t-spanner as frozen CSR graphs (graph.Frozen), a router over the
// spanner, and a fresh LRU route cache. Readers load the current snapshot
// with a single atomic pointer read and then work entirely against frozen
// state — a concurrent mutation batch swaps in a successor snapshot but can
// never alter this one, so every answer a snapshot gives is consistent with
// exactly one topology version (no torn reads by construction). Because the
// graphs are frozen at export, successive snapshots share the storage of
// every adjacency row the mutation batch did not touch. Searches borrow
// scratch from graph.AcquireSearcher: a Searcher carries no graph state, so
// the warmed scratch of each P serves every snapshot version in turn.
type Snapshot struct {
	// Version increments with every applied mutation batch (1 = initial).
	Version uint64
	// T is the spanner stretch bound routes are served under.
	T float64
	// Points holds slot-indexed positions; nil for free (departed) slots.
	Points []geom.Point
	// Alive marks which slots hold live nodes.
	Alive []bool
	// Base is the connectivity graph (radius model) at this version.
	Base *graph.Frozen
	// Spanner is the maintained t-spanner routes are forwarded on.
	Spanner *graph.Frozen

	router *routing.Router
	cache  *routeCache
	ctr    *counters // service-lifetime counters, shared across snapshots

	// oracle is the hub-label distance oracle over Spanner, nil when
	// Options.Labels is off (then Distance always searches). Immutable,
	// like everything else here; successors carry their own.
	oracle *labels.Oracle

	live   int
	bboxLo geom.Point
	bboxHi geom.Point

	// The /stats stretch probe runs lazily on first demand, not on the
	// swap path, and is memoized for the snapshot's lifetime.
	stretchOnce sync.Once
	stretch     analyze.StretchProbe
	seed        int64
}

// RouteResult is one answered route query, stamped with the snapshot
// version that produced it.
type RouteResult struct {
	Route routing.Route
	// Stretch is route cost over the base-graph shortest-path cost on the
	// same snapshot (1 for s==t; 0 when undelivered or base-disconnected).
	Stretch float64
	// Version is the topology version this result is valid against.
	Version uint64
	// Cached reports whether the result was served from the route cache.
	Cached bool
}

// Route answers one route query against this frozen topology version.
// src/dst must name live nodes (ErrUnknownNode otherwise). Results are
// memoized in the snapshot's LRU cache keyed by (scheme, src, dst) — with
// the endpoints canonicalized to (min, max) order for the shortest-path
// scheme, which is symmetric on an undirected topology: one cache entry
// then serves both query orientations (a flipped hit returns a reversed
// copy of the cached path), doubling the cache's effective capacity. The
// geographic schemes (greedy, compass) are direction-dependent — the
// forwarding decision at each hop depends on which endpoint is the
// destination — so their keys keep the requested orientation.
//
// A miss is computed in the key's orientation too, so a reply never
// depends on cache state: the uncached (hi, lo) answer is the reverse of
// the (lo, hi) search, exactly what a flipped hit returns.
func (s *Snapshot) Route(scheme routing.Scheme, src, dst int) (RouteResult, error) {
	if err := s.checkNode(src); err != nil {
		return RouteResult{}, err
	}
	if err := s.checkNode(dst); err != nil {
		return RouteResult{}, err
	}
	s.ctr.routes.Add(1)
	key := routeKey{scheme: scheme, src: int32(src), dst: int32(dst)}
	flipped := false
	if scheme == routing.SchemeShortestPath && src > dst {
		key.src, key.dst = key.dst, key.src
		flipped = true
	}
	r, ok := s.cache.get(key)
	if ok {
		r.Cached = true
	} else {
		var err error
		if r, err = s.route(scheme, int(key.src), int(key.dst)); err != nil {
			return RouteResult{}, err
		}
		s.cache.put(key, r)
	}
	if r.Route.Delivered {
		s.ctr.delivered.Add(1)
	}
	if flipped {
		// Cost, stretch, and deliverability are symmetric for shortest-path
		// routes. A delivered path reverses; an undelivered one carries only
		// its source (the failure prefix is not symmetric), which must be
		// this query's source.
		if r.Route.Delivered {
			r.Route.Path = reversedPath(r.Route.Path)
		} else {
			r.Route.Path = []int{src}
		}
	}
	return r, nil
}

// route computes one uncached route: the router's search on the spanner,
// then, for a delivered route, the base-graph optimum the stretch field
// divides by — both goal-directed A* over the snapshot's points.
func (s *Snapshot) route(scheme routing.Scheme, src, dst int) (RouteResult, error) {
	srch := graph.AcquireSearcher(len(s.Alive))
	defer graph.ReleaseSearcher(srch)
	rt, err := s.router.RouteWith(srch, scheme, src, dst)
	if err != nil {
		return RouteResult{}, err
	}
	res := RouteResult{Route: rt, Version: s.Version}
	if rt.Delivered {
		if base, ok := srch.AStarTarget(s.Base, s.Points, src, dst, graph.Inf); ok {
			if base > 0 {
				res.Stretch = rt.Cost / base
			} else {
				res.Stretch = 1 // s == t
			}
		}
	}
	return res, nil
}

// DistanceResult is one answered point-to-point distance query.
type DistanceResult struct {
	// Distance is the exact spanner shortest-path distance (0 when
	// unreachable — check Reachable; JSON cannot carry +Inf).
	Distance float64 `json:"distance"`
	// Reachable reports whether any spanner path connects the endpoints.
	Reachable bool `json:"reachable"`
	// FromLabels reports whether the hub-label oracle certified the answer
	// (false: served by the A* search fallback). The value is exact either
	// way.
	FromLabels bool `json:"from_labels"`
	// Version is the topology version this result is valid against.
	Version uint64 `json:"version"`
}

// Distance answers one exact point-to-point distance query against this
// frozen topology version: hub labels first when the snapshot carries an
// oracle (allocation-free), the router's A* search otherwise or whenever
// the oracle declines to certify. src/dst must name live nodes.
func (s *Snapshot) Distance(src, dst int) (DistanceResult, error) {
	if err := s.checkNode(src); err != nil {
		return DistanceResult{}, err
	}
	if err := s.checkNode(dst); err != nil {
		return DistanceResult{}, err
	}
	srch := graph.AcquireSearcher(len(s.Alive))
	d, fromLabels, err := s.router.Distance(srch, src, dst)
	graph.ReleaseSearcher(srch)
	if err != nil {
		return DistanceResult{}, err
	}
	if fromLabels {
		s.ctr.labelHits.Add(1)
	} else {
		s.ctr.labelFalls.Add(1)
	}
	res := DistanceResult{FromLabels: fromLabels, Version: s.Version}
	if d < graph.Inf {
		res.Distance, res.Reachable = d, true
	}
	return res, nil
}

// reversedPath returns a reversed copy of path. Cached paths are shared
// with every reader that hits the entry, so the reversal must not happen
// in place.
func reversedPath(path []int) []int {
	out := slices.Clone(path)
	slices.Reverse(out)
	return out
}

// Neighbor is one spanner adjacency of a queried node.
type Neighbor struct {
	ID     int        `json:"id"`
	Weight float64    `json:"weight"`
	Point  geom.Point `json:"point"`
}

// Neighbors returns the live node's position and its spanner adjacencies
// (plus its base-graph degree, to show how much the spanner thinned).
func (s *Snapshot) Neighbors(id int) (geom.Point, []Neighbor, int, error) {
	if err := s.checkNode(id); err != nil {
		return nil, nil, 0, err
	}
	hs := s.Spanner.Neighbors(id)
	out := make([]Neighbor, len(hs))
	for i, h := range hs {
		out[i] = Neighbor{ID: h.To, Weight: h.W, Point: s.Points[h.To]}
	}
	return s.Points[id], out, s.Base.Degree(id), nil
}

// Live returns the number of live nodes at this version.
func (s *Snapshot) Live() int { return s.live }

// stretchProbe returns this snapshot's /stats stretch probe: the probe
// /analyze/divergence?sample=256&seed=<Options.Seed+Version> runs, without
// the edge diff. The first call computes it; later calls share the result.
func (s *Snapshot) stretchProbe() *analyze.StretchProbe {
	s.stretchOnce.Do(func() {
		s.stretch = analyze.ProbeStretch(s.analyzeView(), analyze.DefaultSample, s.seed+int64(s.Version), s.analyzeOptions())
	})
	return &s.stretch
}

// checkNode validates that id names a live node in this snapshot.
func (s *Snapshot) checkNode(id int) error {
	if id < 0 || id >= len(s.Alive) || !s.Alive[id] {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return nil
}
