package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"topoctl/internal/cluster"
	"topoctl/internal/graph"
)

// rowChecker is §2's protocol with a check on every phase's cover, run
// after the cover is built and before the phase's queries.
type rowChecker struct {
	sequential
	check func(sp *graph.Graph, cov *cluster.Cover)
}

func (r rowChecker) Cover(sp *graph.Graph, radius float64, short []int, cov *cluster.Cover) {
	r.sequential.Cover(sp, radius, short, cov)
	r.check(sp, cov)
}

// sortedRow is v's row of h in increasing neighbor order.
func sortedRow(h *graph.Graph, v int) []graph.Halfedge {
	row := slices.Clone(h.Neighbors(v))
	slices.SortFunc(row, func(a, b graph.Halfedge) int { return cmp.Compare(a.To, b.To) })
	return row
}

// TestOnDemandRowsMatchClusterGraph drives real builds on the
// hDecidesShapes at ε ∈ {0.5, 1} and, on every phase's partial spanner and
// cover, builds H's rows on demand in a shuffled center order. Each row
// must equal BuildClusterGraph's, neighbor for neighbor with bit-equal
// weights (the weight BuildClusterGraph keeps is its smaller center's
// turn's), as soon as Row returns: when the rows of most of its partners
// are not built yet. Members' rows must be complete from Start.
func TestOnDemandRowsMatchClusterGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds H twice in every phase of four n = 2,048 builds")
	}
	for _, sh := range hDecidesShapes {
		inst := shapeInstance(t, sh.cloud, 2048, 1, sh.sideRadius)
		for _, eps := range []float64{0.5, 1} {
			t.Run(fmt.Sprintf("%s/eps=%v", sh.name, eps), func(t *testing.T) {
				p := mustParams(t, eps, 0.75, 2)
				n := inst.G.N()
				bins := newBins(n, p)
				byBin := binEdges(inst.G, bins, EuclideanMetric)
				var phases []int // the non-empty long-edge bins, in phase order
				for i := 1; i < len(byBin); i++ {
					if len(byBin[i]) > 0 {
						phases = append(phases, i)
					}
				}
				rng := rand.New(rand.NewSource(45))
				var full, lazy cluster.ClusterGraph
				checked, rows := 0, 0
				check := func(sp *graph.Graph, cov *cluster.Cover) {
					i := phases[checked]
					checked++
					wPrev, wCur := EuclideanMetric.Weight(bins.ceiling(i-1)), EuclideanMetric.Weight(bins.ceiling(i))
					crossBound, rescueBound := (2*p.Delta+1)*wPrev, p.T*wCur
					cluster.BuildClusterGraph(sp, cov, wPrev, crossBound, rescueBound, &full)
					lazy.Start(sp, cov, wPrev, crossBound, rescueBound)
					for v := 0; v < n; v++ {
						if !cov.IsCenter(v) && !slices.Equal(sortedRow(lazy.H, v), sortedRow(full.H, v)) {
							t.Fatalf("bin %d: member %d's row is %v after Start, BuildClusterGraph's %v",
								i, v, sortedRow(lazy.H, v), sortedRow(full.H, v))
						}
					}
					centers := cov.Centers()
					rng.Shuffle(len(centers), func(a, b int) { centers[a], centers[b] = centers[b], centers[a] })
					for _, c := range centers {
						lazy.Row(c)
						got, want := sortedRow(lazy.H, c), sortedRow(full.H, c)
						if !slices.EqualFunc(got, want, func(a, b graph.Halfedge) bool {
							return a.To == b.To && math.Float64bits(a.W) == math.Float64bits(b.W)
						}) {
							t.Fatalf("bin %d: center %d's row is %v on demand, BuildClusterGraph's %v", i, c, got, want)
						}
						rows++
					}
					if lazy.InterEdges != full.InterEdges || lazy.MaxInterWeight != full.MaxInterWeight {
						t.Fatalf("bin %d: %d inter-edges, max weight %v on demand; BuildClusterGraph %d, %v",
							i, lazy.InterEdges, lazy.MaxInterWeight, full.InterEdges, full.MaxInterWeight)
					}
				}
				res, err := Run(inst.Points, inst.G, Options{Params: p}, rowChecker{check: check})
				if err != nil {
					t.Fatal(err)
				}
				if checked != len(phases) {
					t.Fatalf("checked %d phases, the schedule has %d", checked, len(phases))
				}
				t.Logf("%d phases, %d center rows, %d fallbacks to H, %d decided by H",
					checked, rows, res.Stats.QueriesOnH, res.Stats.DecidedByH)
			})
		}
	}
}
