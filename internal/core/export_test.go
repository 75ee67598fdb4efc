package core

import (
	"fmt"
	"slices"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// ReplayPhases runs replayPhases for the external core_test package: the
// spanner Build must arrive at, from H in every phase and redundancy balls
// of radius t1·W_i. On every phase with two additions it also checks that
// the scan within pairRadius, the radius Build searches, reports the pairs
// the reference scan finds at t1·W_i, and returns the first phase that
// does not.
func ReplayPhases(pts []geom.Point, g *graph.Graph, p Params) (*graph.Graph, error) {
	var scan redundancyScan
	var err error
	sp := replayPhases(pts, g, p, func(h *graph.Graph, added []EdgeInfo, t1, bound float64) {
		got := scan.pairs(h.N(), added, t1, ballsOn(h, pairRadius(added, t1)))
		if want := refFindRedundantPairs(h, added, t1, bound); err == nil && !slices.Equal(got, want) {
			err = fmt.Errorf("%d added edges: pairs within pairRadius %v, reference %v", len(added), got, want)
		}
	})
	return sp, err
}
