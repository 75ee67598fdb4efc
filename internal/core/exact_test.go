package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"topoctl/internal/cluster"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/ubg"
)

// exactShapes are the n = 2,048 instances the phase bookkeeping is checked
// on: the hDecidesShapes and the build-8k shape at that size.
func exactShapes(t *testing.T) map[string]*ubg.Instance {
	out := map[string]*ubg.Instance{"build-8k-shape": pinnedInstance(t, 2048, 1)}
	for _, sh := range hDecidesShapes {
		out[sh.name] = shapeInstance(t, sh.cloud, 2048, 1, sh.sideRadius)
	}
	return out
}

// TestPhaseCoverAndSelectionMatchFullScan drives real builds on the
// exactShapes at ε ∈ {0.5, 1} and checks every phase's bookkeeping against
// the forms it replaced, before the phase's queries run. The cover the
// builder peels over its short-edge vertices, from the previous phase's
// cover, must equal a fresh peel that scans every vertex (GreedyCover):
// Center and Dist bit for bit, Clustered and every cluster's members. The
// phase's query selection must equal the map-grouped reference on the
// geom.Angle covered test, edges and counters, with one and with two edges
// kept per cluster pair, and with the query filter off.
func TestPhaseCoverAndSelectionMatchFullScan(t *testing.T) {
	for name, inst := range exactShapes(t) {
		for _, eps := range []float64{0.5, 1} {
			t.Run(fmt.Sprintf("%s/eps=%v", name, eps), func(t *testing.T) {
				p := mustParams(t, eps, 0.75, 2)
				bins := newBins(inst.G.N(), p)
				byBin := binEdges(inst.G, bins, EuclideanMetric)
				var phases []int
				for i := 1; i < len(byBin); i++ {
					if len(byBin[i]) > 0 {
						phases = append(phases, i)
					}
				}
				checked, clustered := 0, 0
				check := func(sp *graph.Graph, cov *cluster.Cover) {
					i := phases[checked]
					checked++
					full := cluster.GreedyCover(sp, cov.Radius, nil)
					if !slices.Equal(cov.Center, full.Center) ||
						!slices.EqualFunc(cov.Dist, full.Dist, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("bin %d: the peel over short-edge vertices differs from a full scan's", i)
					}
					if !slices.Equal(cov.Clustered, full.Clustered) {
						t.Fatalf("bin %d: Clustered %v, full scan %v", i, cov.Clustered, full.Clustered)
					}
					for _, c := range full.Clustered {
						if !slices.Equal(cov.Members(c), full.Members(c)) {
							t.Fatalf("bin %d: members of %d are %v, full scan %v", i, c, cov.Members(c), full.Members(c))
						}
					}
					clustered += len(cov.Clustered)
					for _, o := range []selectOpts{
						{},
						{PerPairExtra: 1},
						{DisableQueryFilter: true},
					} {
						o.T, o.Theta, o.Alpha = p.T, p.Theta, p.Alpha
						got, gotSt := selectQueries(inst.Points, sp, cov, byBin[i], o)
						want, wantSt := refSelectQueries(inst.Points, sp, cov, byBin[i], o)
						if !slices.Equal(got, want) || gotSt != wantSt {
							t.Fatalf("bin %d, %+v: selected %d edges %+v; reference %d edges %+v",
								i, o, len(got), gotSt, len(want), wantSt)
						}
					}
				}
				if _, err := Run(inst.Points, inst.G, Options{Params: p}, rowChecker{check: check}); err != nil {
					t.Fatal(err)
				}
				if checked != len(phases) || clustered == 0 {
					t.Fatalf("checked %d of %d phases, %d clustered centers: the harness saw no cluster", checked, len(phases), clustered)
				}
			})
		}
	}
}

// TestBinsIndexMatchesFormula checks the tabled bins against their
// formula: every ceiling bit for bit, and the bin of every edge of the
// exactShapes, of every W_i and of the floats on either side of it.
func TestBinsIndexMatchesFormula(t *testing.T) {
	for name, inst := range exactShapes(t) {
		for _, eps := range []float64{0.5, 1} {
			bins := newBins(inst.G.N(), mustParams(t, eps, 0.75, 2))
			for _, e := range inst.G.EdgesUnordered() {
				if got, want := bins.index(e.W), refIndex(bins, e.W); got != want {
					t.Fatalf("%s/eps=%v: edge of length %v in bin %d, formula %d", name, eps, e.W, got, want)
				}
			}
			for i := 0; i <= bins.M; i++ {
				w := bins.ceiling(i)
				if want := refCeiling(bins, i); math.Float64bits(w) != math.Float64bits(want) {
					t.Fatalf("%s/eps=%v: W_%d = %v, formula %v", name, eps, i, w, want)
				}
				for _, d := range []float64{math.Nextafter(w, 0), w, math.Nextafter(w, 2)} {
					if got, want := bins.index(d), refIndex(bins, d); got != want {
						t.Fatalf("%s/eps=%v: length %v near W_%d in bin %d, formula %d", name, eps, d, i, got, want)
					}
				}
			}
		}
	}
}

// FuzzCovered compares the witness test with its geom.Angle form on
// triples (u, v, z) from a coarse grid, where coincident, collinear and
// tied points are common, and on triples whose angle at u is θ plus a
// small turn, where the two forms meet at the band around cos θ.
func FuzzCovered(f *testing.F) {
	// Coincident u = z, coincident u = v, z collinear inside and beyond
	// uv, and z at exactly θ (turn 0) from uv.
	f.Add(uint8(0), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0), 0.0, false, uint8(1))
	f.Add(uint8(3), uint8(3), uint8(3), uint8(3), uint8(5), uint8(3), 0.0, false, uint8(0))
	f.Add(uint8(0), uint8(0), uint8(8), uint8(0), uint8(4), uint8(0), 0.0, false, uint8(2))
	f.Add(uint8(0), uint8(0), uint8(8), uint8(0), uint8(12), uint8(0), 0.0, false, uint8(1))
	f.Add(uint8(2), uint8(1), uint8(9), uint8(6), uint8(10), uint8(0), 0.0, true, uint8(1))
	f.Add(uint8(2), uint8(1), uint8(9), uint8(6), uint8(15), uint8(0), -1e-17, true, uint8(0))
	f.Fuzz(func(t *testing.T, ux, uy, vx, vy, zx, zy uint8, turn float64, nearTheta bool, epsSel uint8) {
		const step = 1.0 / 8
		p, err := NewParams([]float64{0.25, 0.5, 1}[epsSel%3], 0.75, 2)
		if err != nil {
			t.Fatal(err)
		}
		grid := func(x, y uint8) geom.Point { return geom.Point{float64(x%16) * step, float64(y%16) * step} }
		u, v, z := grid(ux, uy), grid(vx, vy), grid(zx, zy)
		duv := geom.Dist(u, v)
		if nearTheta && duv > 0 && !math.IsNaN(turn) && math.Abs(turn) <= 1e-6 {
			// z at angle θ + turn from uv, at a length from the grid's
			// zx: from 1/16 of |uv| to a little beyond it.
			a := math.Atan2(v[1]-u[1], v[0]-u[0]) + p.Theta + turn
			r := duv * float64(zx%20+1) / 16
			z = geom.Point{u[0] + r*math.Cos(a), u[1] + r*math.Sin(a)}
		}
		w := NewWitness(p.Theta)
		duz := geom.Dist(u, z)
		want := duz > 0 && duz <= duv && geom.Angle(u, v, z) <= p.Theta
		if got := w.Holds(u, v, z, duv); got != want {
			t.Fatalf("u=%v v=%v z=%v θ=%v: Holds %v, geom.Angle form %v (angle %v)",
				u, v, z, p.Theta, got, want, geom.Angle(u, v, z))
		}
	})
}
