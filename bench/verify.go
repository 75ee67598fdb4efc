package main

import (
	"encoding/json"
	"fmt"
	"math"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/service"
)

const eps = 1e-9

// reference is the in-process copy of the daemon's initial topology that
// sampled replies are checked against. dynamic.New is deterministic in the
// points, so a service built here from the same file has edge for edge the
// spanner the child process serves at version 1. Labels are off: the checks
// recompute distances with the search core, which is the oracle's own
// reference.
type reference struct {
	svc  *service.Service
	snap *service.Snapshot
	srch *graph.Searcher
}

func newReference(pts []geom.Point) (*reference, error) {
	svc, err := service.New(pts, service.Options{T: stretchT, Radius: radius})
	if err != nil {
		return nil, err
	}
	snap := svc.Snapshot()
	return &reference{svc: svc, snap: snap, srch: graph.NewSearcher(len(snap.Alive))}, nil
}

func (r *reference) close() { r.svc.Close() }

// check verifies one reply of a read-only workload against the replica.
func (r *reference) check(rp reply) error {
	q := rp.q
	want, reachable := r.srch.DijkstraTarget(r.snap.Spanner, q.src, q.dst, graph.Inf)
	if q.dist {
		var d service.DistanceResult
		if err := json.Unmarshal(rp.body, &d); err != nil {
			return fmt.Errorf("/distance %d→%d: %w", q.src, q.dst, err)
		}
		switch {
		case d.Version != r.snap.Version:
			return fmt.Errorf("/distance %d→%d: version %d, want %d", q.src, q.dst, d.Version, r.snap.Version)
		case d.Reachable != reachable:
			return fmt.Errorf("/distance %d→%d: reachable=%v, search says %v", q.src, q.dst, d.Reachable, reachable)
		case reachable && math.Abs(d.Distance-want) > eps:
			return fmt.Errorf("/distance %d→%d: %v, search says %v", q.src, q.dst, d.Distance, want)
		}
		return nil
	}
	var rr service.RouteResponse
	if err := json.Unmarshal(rp.body, &rr); err != nil {
		return fmt.Errorf("/route %d→%d: %w", q.src, q.dst, err)
	}
	if err := checkRouteShape(q, &rr); err != nil {
		return err
	}
	switch {
	case rr.Version != r.snap.Version:
		return fmt.Errorf("/route %d→%d: version %d, want %d", q.src, q.dst, rr.Version, r.snap.Version)
	case rr.Delivered != reachable:
		return fmt.Errorf("/route %d→%d: delivered=%v, search says reachable=%v", q.src, q.dst, rr.Delivered, reachable)
	case !rr.Delivered:
		return nil
	}
	w, ok := graph.PathWeight(r.snap.Spanner, rr.Path)
	switch {
	case !ok:
		return fmt.Errorf("/route %d→%d: path is not a walk in the spanner", q.src, q.dst)
	case math.Abs(w-rr.Cost) > eps:
		return fmt.Errorf("/route %d→%d: path weighs %v, cost says %v", q.src, q.dst, w, rr.Cost)
	case math.Abs(rr.Cost-want) > eps:
		return fmt.Errorf("/route %d→%d: cost %v, shortest is %v", q.src, q.dst, rr.Cost, want)
	}
	return nil
}

// checkRouteShape is what can be said of a /route reply without knowing
// the topology version it was served from — all that churn-durable can
// check per reply, since its topology moves under the reader.
func checkRouteShape(q query, rr *service.RouteResponse) error {
	switch {
	case len(rr.Path) == 0 || rr.Path[0] != q.src:
		return fmt.Errorf("/route %d→%d: path %v does not start at the source", q.src, q.dst, rr.Path)
	case rr.Hops != len(rr.Path)-1:
		return fmt.Errorf("/route %d→%d: hops %d but %d path vertices", q.src, q.dst, rr.Hops, len(rr.Path))
	case rr.Delivered && rr.Path[len(rr.Path)-1] != q.dst:
		return fmt.Errorf("/route %d→%d: delivered path ends at %d", q.src, q.dst, rr.Path[len(rr.Path)-1])
	case rr.Stretch > stretchT+eps:
		return fmt.Errorf("/route %d→%d: stretch %v exceeds t=%v", q.src, q.dst, rr.Stretch, stretchT)
	}
	return nil
}

// checkChurnReply is the per-reply check of churn-durable.
func checkChurnReply(rp reply) error {
	if rp.q.dist {
		var d service.DistanceResult
		if err := json.Unmarshal(rp.body, &d); err != nil {
			return fmt.Errorf("/distance %d→%d: %w", rp.q.src, rp.q.dst, err)
		}
		if d.Reachable && !(d.Distance > 0) {
			return fmt.Errorf("/distance %d→%d: reachable at distance %v", rp.q.src, rp.q.dst, d.Distance)
		}
		return nil
	}
	var rr service.RouteResponse
	if err := json.Unmarshal(rp.body, &rr); err != nil {
		return fmt.Errorf("/route %d→%d: %w", rp.q.src, rp.q.dst, err)
	}
	return checkRouteShape(rp.q, &rr)
}

// verifier counts checks into a workload's attempted/failed totals and
// keeps the first few failures for the report.
type verifier struct {
	checked, failed int
	errs            []error
}

func (v *verifier) add(err error) {
	v.checked++
	if err != nil {
		v.failed++
		if len(v.errs) < 5 {
			v.errs = append(v.errs, err)
		}
	}
}
