package analyze

import (
	"fmt"
	"slices"

	"topoctl/internal/graph"
)

// HopDetail is one hop of an explained route with its running total.
type HopDetail struct {
	From       int     `json:"from"`
	To         int     `json:"to"`
	Weight     float64 `json:"weight"`
	Cumulative float64 `json:"cumulative"`
}

// RouteExplanation breaks a spanner route down hop by hop and compares it
// against the base-graph optimum and, when a hub-label oracle is attached,
// the oracle's answer for the same pair.
type RouteExplanation struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Reachable reports whether the spanner connects the pair; when false
	// the cost fields are 0.
	Reachable   bool        `json:"reachable"`
	SpannerCost float64     `json:"spanner_cost"`
	Path        []HopDetail `json:"path,omitempty"`
	// BaseCost is the base-graph shortest-path cost (the optimum the
	// spanner is allowed to stretch by at most t).
	BaseReachable bool    `json:"base_reachable"`
	BaseCost      float64 `json:"base_cost"`
	// Stretch is SpannerCost/BaseCost when both are reachable; Bound is
	// the spanner's t, WithinBound whether the guarantee held here.
	Stretch     float64 `json:"stretch"`
	Bound       float64 `json:"bound"`
	WithinBound bool    `json:"within_bound"`
	// Oracle cross-check: when a distance oracle is attached and answered
	// (OracleChecked), OracleAgrees reports whether its distance matches
	// the search answer to within a relative tolerance.
	OracleChecked  bool    `json:"oracle_checked"`
	OracleDistance float64 `json:"oracle_distance,omitempty"`
	OracleAgrees   bool    `json:"oracle_agrees,omitempty"`
}

// oracleTol is the relative tolerance for oracle-vs-search agreement;
// both compute the same float sums in different orders.
const oracleTol = 1e-9

// Explain routes src→dst on the spanner and annotates the result: per-hop
// costs, the base-graph optimum for comparison, whether the stretch bound
// held for this pair, and whether the label oracle (if any) agrees with
// the search.
func Explain(v View, src, dst int, opts Options) (*RouteExplanation, error) {
	if !v.alive(src) {
		return nil, fmt.Errorf("%w: vertex %d", ErrUnknownVertex, src)
	}
	if !v.alive(dst) {
		return nil, fmt.Errorf("%w: vertex %d", ErrUnknownVertex, dst)
	}
	exp := &RouteExplanation{Src: src, Dst: dst, Bound: v.T}

	srch := graph.AcquireSearcher(v.n())
	defer graph.ReleaseSearcher(srch)

	// The same kernel and orientation /route serves (service.Snapshot.Route):
	// both searches run from the smaller endpoint id, and the path is
	// reversed back when src > dst, so between equal-cost paths the
	// explanation describes the one a client was given.
	lo, hi := min(src, dst), max(src, dst)
	path, cost, ok := srch.AppendAStarPathTo(nil, v.Spanner, v.Points, lo, hi, graph.Inf)
	if ok {
		if src > dst {
			slices.Reverse(path)
		}
		exp.Reachable, exp.SpannerCost = true, cost
		run := 0.0
		for i := 0; i+1 < len(path); i++ {
			w, _ := v.Spanner.EdgeWeight(path[i], path[i+1])
			run += w
			exp.Path = append(exp.Path, HopDetail{
				From: path[i], To: path[i+1], Weight: w, Cumulative: run,
			})
		}
	}
	if d, ok := srch.AStarTarget(v.Base, v.Points, lo, hi, graph.Inf); ok {
		exp.BaseReachable, exp.BaseCost = true, d
	}
	if exp.Reachable && exp.BaseReachable {
		if exp.BaseCost > 0 {
			exp.Stretch = exp.SpannerCost / exp.BaseCost
		} else {
			exp.Stretch = 1
		}
		exp.WithinBound = exp.Stretch <= v.T*(1+oracleTol)
	}
	if src == dst {
		exp.Stretch, exp.WithinBound = 1, true
	}

	if v.Oracle != nil {
		if d, ok := v.Oracle.Query(src, dst); ok {
			exp.OracleChecked, exp.OracleDistance = true, d
			want := exp.SpannerCost
			if !exp.Reachable {
				exp.OracleAgrees = false
			} else if want == 0 {
				exp.OracleAgrees = d == 0
			} else {
				diff := d - want
				if diff < 0 {
					diff = -diff
				}
				exp.OracleAgrees = diff <= oracleTol*want
			}
		}
	}
	return exp, nil
}
