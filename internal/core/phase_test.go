package core

import (
	"math"
	"testing"

	"topoctl/internal/cluster"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// TestPhaseAnswersQueriesOnClusterGraph drives one phase on a hand-built
// partial spanner whose cover has a two-member cluster, so the phase must
// answer its query on H, not on G'. Query q = {x, v} has |xv| = 0.5, so
// t·w(q) = 0.75. G' holds the path x–m–v of length 0.745 around the apex m
// (too wide an angle for the covered-edge filter to drop q). Center c sits
// 0.005 behind x, within the cluster radius δ·W_{i−1} ≈ 0.0072, so x's only
// H edge leads to c, and x's H-distance to v is 0.755: on H, q is needed.
// With c moved out of range the cover is all singletons, H agrees with G'
// within t·W_i, and the phase must reject q.
func TestPhaseAnswersQueriesOnClusterGraph(t *testing.T) {
	const c, x, v, m = 0, 1, 2, 3
	p := mustParams(t, 0.5, 0.75, 2)
	apex := math.Sqrt(0.3725*0.3725 - 0.25*0.25) // |xm| = |mv| = 0.3725
	for _, tc := range []struct {
		name      string
		cx        float64 // c's abscissa; x is at the origin
		clustered bool
		want      bool // the phase adds q
	}{
		{"two-member cluster", -0.005, true, true},
		{"all singletons", -0.05, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := []geom.Point{{tc.cx, 0}, {0, 0}, {0.5, 0}, {0.25, apex}}
			sp := graph.New(len(pts))
			for _, e := range [][2]int{{c, x}, {x, m}, {m, v}} {
				sp.AddEdge(e[0], e[1], geom.Dist(pts[e[0]], pts[e[1]]))
			}
			q := EdgeInfo{U: x, V: v, Dist: 0.5, W: 0.5}
			bins := newBins(len(pts), p)
			i := bins.index(q.Dist)
			wPrev := bins.ceiling(i - 1)
			bound := p.T * q.W

			// The fixture's premises: G' alone would reject q, and only the
			// two-member cluster makes H's answer differ.
			if !sp.ReachableWithin(x, v, bound) {
				t.Fatalf("G' has no x–v path within t·w = %v", bound)
			}
			cov := cluster.GreedyCover(sp, p.Delta*wPrev, nil)
			if got := len(cov.Members(c)) == 2; got != tc.clustered {
				t.Fatalf("cover clusters %v with c: %v, want %v", cov.Members(c), got, tc.clustered)
			}
			cg := cluster.BuildClusterGraph(sp, cov, wPrev, (2*p.Delta+1)*wPrev, p.T*bins.ceiling(i), nil)
			if got := !cg.H.ReachableWithin(x, v, bound); got != tc.want {
				t.Fatalf("H needs q: %v, want %v", got, tc.want)
			}

			b := &builder{points: pts, opts: Options{Params: p, Metric: EuclideanMetric}, p: p, sp: sp, bins: bins, proto: sequential{}}
			if _, kept := b.phase(i, []EdgeInfo{q}); (kept == 1) != tc.want || sp.HasEdge(x, v) != tc.want {
				t.Errorf("phase kept %d edges, q in spanner: %v; want q added: %v", kept, sp.HasEdge(x, v), tc.want)
			}
		})
	}
}
