package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"topoctl/internal/cluster"
	"topoctl/internal/fault"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/mis"
)

// refFindRedundantPairs is the map-based all-pairs scan the local
// redundancyScan.pairs replaced, kept verbatim as the differential
// reference.
func refFindRedundantPairs(h *graph.Graph, added []EdgeInfo, t1, bound float64) [][2]int {
	s := graph.AcquireSearcher(h.N())
	defer graph.ReleaseSearcher(s)
	endpoints := make(map[int]map[int]float64)
	for _, e := range added {
		for _, v := range [2]int{e.U, e.V} {
			if _, ok := endpoints[v]; !ok {
				ball := s.Ball(h, v, bound)
				m := make(map[int]float64, len(ball))
				for _, vd := range ball {
					m[vd.V] = vd.D
				}
				endpoints[v] = m
			}
		}
	}
	dist := func(x, y int) float64 {
		if d, ok := endpoints[x][y]; ok {
			return d
		}
		return math.Inf(1)
	}
	var pairs [][2]int
	for i := 0; i < len(added); i++ {
		for j := i + 1; j < len(added); j++ {
			a, c := added[i], added[j]
			s1 := dist(a.U, c.U) + dist(a.V, c.V)
			s2 := dist(a.U, c.V) + dist(a.V, c.U)
			s := math.Min(s1, s2)
			if s+c.W <= t1*a.W && s+a.W <= t1*c.W {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	return pairs
}

// ballsOn returns the ball function redundancyScan.pairs measures on:
// every vertex's ball of radius bound in h.
func ballsOn(h *graph.Graph, bound float64) func(v int) []graph.VertexDist {
	s := graph.NewSearcher(h.N())
	return func(v int) []graph.VertexDist { return s.Ball(h, v, bound) }
}

// replayPhases re-runs Build's lazy phases (no ablations, no fault
// tolerance) step by step from the same pieces, calling check on every
// phase's redundancy input and then removing the pairs redundancyScan
// reports, as Build does. It returns the spanner it arrives at. Unlike
// Build it builds H in every phase, so landing on Build's spanner also
// checks the phases with an all-singleton cover, where Build reads
// G'_{i-1} instead.
func replayPhases(pts []geom.Point, g *graph.Graph, p Params, check func(h *graph.Graph, added []EdgeInfo, t1, bound float64)) *graph.Graph {
	m := EuclideanMetric
	sp := graph.New(g.N())
	bins := newBins(g.N(), p)
	byBin := binEdges(g, bins, m)
	phase0(pts, sp, byBin[0], p.T, m, 0, fault.EdgeFaults)
	var scan redundancyScan
	for i := 1; i < len(byBin); i++ {
		if len(byBin[i]) == 0 {
			continue
		}
		wPrev := m.Weight(bins.ceiling(i - 1))
		cov := cluster.GreedyCover(sp, p.Delta*wPrev, nil)
		cg := cluster.BuildClusterGraph(sp, cov, wPrev, (2*p.Delta+1)*wPrev, p.T*m.Weight(bins.ceiling(i)), nil)
		queries, _ := selectQueries(pts, sp, cov, byBin[i], selectOpts{T: p.T, Theta: p.Theta, Alpha: p.Alpha})
		var added []EdgeInfo
		for _, q := range queries {
			if !cg.H.ReachableWithin(q.U, q.V, p.T*q.W) {
				added = append(added, q)
			}
		}
		for _, e := range added {
			sp.AddEdge(e.U, e.V, e.W)
		}
		if len(added) > 1 {
			bound := p.T1 * m.Weight(bins.ceiling(i))
			check(cg.H, added, p.T1, bound)
			removeNonMIS(sp, added, scan.pairs(sp.N(), added, p.T1, ballsOn(cg.H, bound)), mis.Greedy)
		}
	}
	return sp
}

// TestFindRedundantPairsMatchesReference replays real builds and requires
// the same pair list, in the same order, as the reference scan on every
// phase, from balls of radius t1·W_i and from balls of the tighter
// pairRadius that Build searches; the replay itself must land on Build's
// spanner.
func TestFindRedundantPairsMatchesReference(t *testing.T) {
	total := 0
	for _, tc := range []struct {
		n    int
		seed int64
		eps  float64
	}{{256, 1, 0.5}, {256, 2, 0.25}, {1024, 1, 0.5}, {1024, 3, 1}} {
		t.Run(fmt.Sprintf("n=%d/seed=%d/eps=%v", tc.n, tc.seed, tc.eps), func(t *testing.T) {
			inst := pinnedInstance(t, tc.n, tc.seed)
			p := mustParams(t, tc.eps, 0.75, 2)
			var scan redundancyScan
			sp := replayPhases(inst.Points, inst.G, p, func(h *graph.Graph, added []EdgeInfo, t1, bound float64) {
				got := scan.pairs(h.N(), added, t1, ballsOn(h, bound))
				want := refFindRedundantPairs(h, added, t1, bound)
				if !slices.Equal(got, want) {
					t.Fatalf("%d added edges: pairs %v, reference %v", len(added), got, want)
				}
				if tight := scan.pairs(h.N(), added, t1, ballsOn(h, pairRadius(added, t1))); !slices.Equal(tight, want) {
					t.Fatalf("%d added edges: pairs within pairRadius %v, reference %v", len(added), tight, want)
				}
				total += len(got)
			})
			res, err := Build(inst.Points, inst.G, Options{Params: p})
			if err != nil {
				t.Fatal(err)
			}
			if spannerDigest(sp) != spannerDigest(res.Spanner) {
				t.Fatal("replayed phases diverge from Build")
			}
		})
	}
	if total == 0 {
		t.Error("no phase reported a redundant pair")
	}
}

// TestFindRedundantPairsMatchesReferenceRandom compares the two scans on
// random geometric graphs standing in for H, with random added edges whose
// weights straddle their endpoints' distance, across t1 and search bounds;
// the scan must also match when its balls are cut to pairRadius. In every
// other rep the added edges share one weight, as a bin's nearly do: then a
// pair passes exactly when s <= (t1−1)·w, so pairs with s just under
// pairRadius occur and a narrower radius loses them.
func TestFindRedundantPairsMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	total := 0
	var scan redundancyScan // shared across sizes, as across a build's phases
	for rep := 0; rep < 40; rep++ {
		n := 20 + rng.Intn(60)
		pts := make([]geom.Point, n)
		for v := range pts {
			pts[v] = geom.Point{rng.Float64(), rng.Float64()}
		}
		h := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if d := geom.Dist(pts[u], pts[v]); d < 0.3 {
					h.AddEdge(u, v, d)
				}
			}
		}
		added := make([]EdgeInfo, rng.Intn(3*n))
		shared := 0.1 + 0.5*rng.Float64()
		for i := range added {
			u := rng.Intn(n)
			v := (u + 1 + rng.Intn(n-1)) % n
			d := geom.Dist(pts[u], pts[v])
			added[i] = EdgeInfo{U: u, V: v, Dist: d, W: d * (0.9 + 0.3*rng.Float64())}
			if rep%2 == 1 {
				added[i].W = shared
			}
		}
		for _, t1 := range []float64{1.1, 1.5, 3} {
			for _, bound := range []float64{0.1, 0.5, math.Inf(1)} {
				got := scan.pairs(h.N(), added, t1, ballsOn(h, bound))
				want := refFindRedundantPairs(h, added, t1, bound)
				if !slices.Equal(got, want) {
					t.Fatalf("rep %d, t1=%v, bound=%v: pairs %v, reference %v", rep, t1, bound, got, want)
				}
				tight := scan.pairs(h.N(), added, t1, ballsOn(h, min(bound, pairRadius(added, t1))))
				if !slices.Equal(tight, want) {
					t.Fatalf("rep %d, t1=%v, bound=%v: pairs within pairRadius %v, reference %v", rep, t1, bound, tight, want)
				}
				total += len(got)
			}
		}
	}
	if total == 0 {
		t.Error("no random case reported a redundant pair")
	}
}
