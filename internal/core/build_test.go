package core

import (
	"math"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

func buildInstance(t testing.TB, n, d int, alpha float64, model ubg.Model, seed int64) *ubg.Instance {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: d, Seed: seed},
		ubg.Config{Alpha: alpha, Model: model, P: 0.5, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func mustParams(t testing.TB, eps, alpha float64, d int) Params {
	t.Helper()
	p, err := NewParams(eps, alpha, d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildStretchAcrossEpsilons is the Theorem 10 sweep: the output must be
// a (1+ε)-spanner for every ε, on several instance seeds.
func TestBuildStretchAcrossEpsilons(t *testing.T) {
	for _, eps := range []float64{0.25, 0.5, 1.0, 2.0} {
		for seed := int64(0); seed < 3; seed++ {
			inst := buildInstance(t, 80, 2, 0.75, ubg.ModelAll, 1000+seed)
			p := mustParams(t, eps, 0.75, 2)
			res, err := Build(inst.Points, inst.G, Options{Params: p})
			if err != nil {
				t.Fatal(err)
			}
			if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
				t.Errorf("eps=%v seed=%d: stretch %v > t=%v", eps, seed, s, p.T)
			}
		}
	}
}

// TestBuildStretchAcrossAlphas exercises the α-UBG generality (T6), with
// every grey-zone model.
func TestBuildStretchAcrossAlphas(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.75, 1.0} {
		for _, model := range []ubg.Model{ubg.ModelAll, ubg.ModelNone, ubg.ModelBernoulli, ubg.ModelFalloff} {
			inst := buildInstance(t, 70, 2, alpha, model, 2000)
			p := mustParams(t, 0.5, alpha, 2)
			res, err := Build(inst.Points, inst.G, Options{Params: p})
			if err != nil {
				t.Fatal(err)
			}
			if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
				t.Errorf("alpha=%v model=%v: stretch %v > t", alpha, model, s)
			}
		}
	}
}

// TestBuildStretchAcrossDimensions is the d >= 2 generality check (T7).
func TestBuildStretchAcrossDimensions(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		inst := buildInstance(t, 60, d, 0.75, ubg.ModelAll, 3000)
		p := mustParams(t, 0.5, 0.75, d)
		res, err := Build(inst.Points, inst.G, Options{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
			t.Errorf("d=%d: stretch %v > t", d, s)
		}
	}
}

// TestBuildDegreeStaysBounded is the Theorem 11 scaling check: max degree
// must not grow with n.
func TestBuildDegreeStaysBounded(t *testing.T) {
	var degs []int
	for _, n := range []int{50, 100, 200, 400} {
		inst := buildInstance(t, n, 2, 0.75, ubg.ModelAll, 4000)
		p := mustParams(t, 0.5, 0.75, 2)
		res, err := Build(inst.Points, inst.G, Options{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		degs = append(degs, res.Spanner.MaxDegree())
	}
	for _, d := range degs {
		if d > 16 {
			t.Errorf("max degrees %v: some exceed the empirical constant band", degs)
			break
		}
	}
	if degs[len(degs)-1] > degs[0]*3+4 {
		t.Errorf("max degree appears to grow with n: %v", degs)
	}
}

// TestBuildWeightRatioBounded is the Theorem 13 scaling check: w(G')/w(MST)
// must stay in a constant band as n grows.
func TestBuildWeightRatioBounded(t *testing.T) {
	var ratios []float64
	for _, n := range []int{50, 100, 200, 400} {
		inst := buildInstance(t, n, 2, 0.75, ubg.ModelAll, 5000)
		p := mustParams(t, 0.5, 0.75, 2)
		res, err := Build(inst.Points, inst.G, Options{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, metrics.WeightRatio(inst.G, res.Spanner))
	}
	for _, r := range ratios {
		if r > 10 {
			t.Errorf("weight ratios %v: some exceed the empirical constant band", ratios)
			break
		}
	}
	if ratios[len(ratios)-1] > 2.5*ratios[0] {
		t.Errorf("weight ratio appears to grow with n: %v", ratios)
	}
}

// TestBuildSpannerIsSubgraphWithMetricWeights: output edges must be input
// edges, reweighted by the metric.
func TestBuildSpannerIsSubgraphWithMetricWeights(t *testing.T) {
	inst := buildInstance(t, 60, 2, 0.75, ubg.ModelAll, 6000)
	p := mustParams(t, 0.5, 0.75, 2)
	m := Metric{Coeff: 2, Gamma: 2}
	res, err := Build(inst.Points, inst.G, Options{Params: p, Metric: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Spanner.Edges() {
		dw, ok := inst.G.EdgeWeight(e.U, e.V)
		if !ok {
			t.Fatalf("spanner edge {%d,%d} not in input graph", e.U, e.V)
		}
		if math.Abs(e.W-m.Weight(dw)) > 1e-12 {
			t.Fatalf("edge weight %v != metric weight %v", e.W, m.Weight(dw))
		}
	}
}

// TestBuildEnergyMetricSpanner verifies the §1.6.2 extension: under
// w = c·|uv|^γ the output must t-span the energy metric.
func TestBuildEnergyMetricSpanner(t *testing.T) {
	for _, gamma := range []float64{2, 3} {
		inst := buildInstance(t, 70, 2, 0.75, ubg.ModelAll, 7000)
		p := mustParams(t, 0.5, 0.75, 2)
		m := Metric{Coeff: 1, Gamma: gamma}
		res, err := Build(inst.Points, inst.G, Options{Params: p, Metric: m})
		if err != nil {
			t.Fatal(err)
		}
		s := metrics.StretchVsWeights(inst.G, res.Spanner, func(_, _ int, d float64) float64 {
			return m.Weight(d)
		})
		if s > p.T+1e-9 {
			t.Errorf("gamma=%v: energy stretch %v > t", gamma, s)
		}
	}
}

// TestBuildAblationsPreserveStretch: disabling each optional filter must
// never break the spanner property (they only trade off edges/time).
func TestBuildAblationsPreserveStretch(t *testing.T) {
	inst := buildInstance(t, 70, 2, 0.75, ubg.ModelAll, 8000)
	p := mustParams(t, 0.5, 0.75, 2)
	variants := []Options{
		{Params: p, DisableCoveredFilter: true},
		{Params: p, DisableQueryFilter: true},
		{Params: p, DisableRedundancy: true},
		{Params: p, EagerUpdates: true},
		{Params: p, DisableCoveredFilter: true, DisableQueryFilter: true, DisableRedundancy: true},
	}
	for i, opt := range variants {
		res, err := Build(inst.Points, inst.G, opt)
		if err != nil {
			t.Fatal(err)
		}
		if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
			t.Errorf("variant %d: stretch %v > t", i, s)
		}
	}
}

// TestBuildCoarseBinRatioStillSpanner: the r < (tδ+1)/2 constraint protects
// the weight bound, not correctness; a coarse override must still produce a
// t-spanner.
func TestBuildCoarseBinRatioStillSpanner(t *testing.T) {
	inst := buildInstance(t, 70, 2, 0.75, ubg.ModelAll, 9000)
	p := mustParams(t, 0.5, 0.75, 2)
	res, err := Build(inst.Points, inst.G, Options{Params: p, BinRatio: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
		t.Errorf("coarse bins: stretch %v > t", s)
	}
	fine, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if resBins, fineBins := res.Bins.M, fine.Bins.M; resBins >= fineBins {
		t.Errorf("coarse schedule (%d bins) not coarser than derived (%d)", resBins, fineBins)
	}
}

// TestBuildClusteredAndCorridorClouds exercises the non-uniform workloads.
func TestBuildClusteredAndCorridorClouds(t *testing.T) {
	for _, kind := range []geom.Cloud{geom.CloudClustered, geom.CloudCorridor, geom.CloudGridJitter} {
		inst, err := ubg.GenerateConnected(
			geom.CloudConfig{Kind: kind, N: 80, Dim: 2, Seed: 10_000},
			ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: 10_000},
		)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		p := mustParams(t, 0.5, 0.75, 2)
		res, err := Build(inst.Points, inst.G, Options{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
			t.Errorf("%v: stretch %v > t", kind, s)
		}
	}
}

// TestBuildCoincidentPoints: two points at one position and a third at
// distance 0.5. The twins' zero-length edge is a spanner edge from phase 0,
// and each twin lies at angle 0 within |uv| of the other's edge to the
// third point, so a witness test that accepted |uz| = 0 dropped both edges
// as covered and returned a disconnected spanner.
func TestBuildCoincidentPoints(t *testing.T) {
	points := []geom.Point{{0, 0}, {0, 0}, {0.5, 0}}
	g, err := ubg.Build(points, ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := mustParams(t, 0.5, 0.75, 2)
	res, err := Build(points, g, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stretch(g, res.Spanner); s > p.T {
		t.Fatalf("stretch %v exceeds t = %v; spanner edges %v", s, p.T, res.Spanner.Edges())
	}
}

// TestBuildLeapfrogProperty samples edge subsets of the output and checks
// the (t2, t)-leapfrog inequality (definition (6), Figure 4) for a valid
// t2 — the geometric property the weight proof rests on.
func TestBuildLeapfrogProperty(t *testing.T) {
	inst := buildInstance(t, 90, 2, 0.75, ubg.ModelAll, 11_000)
	p := mustParams(t, 0.5, 0.75, 2)
	res, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	t2 := 1.05 // a modest t2 in (1, t)
	v := metrics.LeapfrogViolations(res.Spanner.Edges(), func(i int) []float64 {
		return inst.Points[i]
	}, t2, p.T, 300, 4, 42)
	if v > 0 {
		t.Errorf("%d leapfrog violations out of 300 samples", v)
	}
}

// TestBuildStatsConsistency: counter identities that must always hold.
func TestBuildStatsConsistency(t *testing.T) {
	inst := buildInstance(t, 80, 2, 0.75, ubg.ModelAll, 12_000)
	p := mustParams(t, 0.5, 0.75, 2)
	res, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.EdgesTotal != inst.G.M() {
		t.Errorf("EdgesTotal = %d, want %d", st.EdgesTotal, inst.G.M())
	}
	if res.Spanner.M() != st.Added-st.RemovedRedundant {
		t.Errorf("spanner edges %d != added %d - removed %d", res.Spanner.M(), st.Added, st.RemovedRedundant)
	}
	if st.NonEmptyPhases > st.Phases {
		t.Errorf("non-empty phases %d > phases %d", st.NonEmptyPhases, st.Phases)
	}
	if st.Queried > st.Candidates && st.Candidates > 0 {
		t.Errorf("queried %d > candidates %d", st.Queried, st.Candidates)
	}
}

// TestBuildDeterministic: identical inputs must give identical outputs.
func TestBuildDeterministic(t *testing.T) {
	inst := buildInstance(t, 70, 2, 0.75, ubg.ModelAll, 13_000)
	p := mustParams(t, 0.5, 0.75, 2)
	a, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.Spanner.Edges(), b.Spanner.Edges()
	if len(ae) != len(be) {
		t.Fatalf("edge counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
}

// TestBuildInputValidation: bad inputs must be rejected with errors.
func TestBuildInputValidation(t *testing.T) {
	inst := buildInstance(t, 20, 2, 0.75, ubg.ModelAll, 14_000)
	good := mustParams(t, 0.5, 0.75, 2)
	if _, err := Build(inst.Points[:10], inst.G, Options{Params: good}); err == nil {
		t.Error("mismatched point count accepted")
	}
	bad := good
	bad.R = 0.5
	if _, err := Build(inst.Points, inst.G, Options{Params: bad}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Build(inst.Points, inst.G, Options{Params: good, Metric: Metric{Coeff: -1, Gamma: 1}}); err == nil {
		t.Error("invalid metric accepted")
	}
}

// TestBuildTinyGraphs: degenerate inputs must not crash.
func TestBuildTinyGraphs(t *testing.T) {
	p := mustParams(t, 0.5, 0.75, 2)
	// Single vertex.
	g1 := graph.New(1)
	if res, err := Build([]geom.Point{{0, 0}}, g1, Options{Params: p}); err != nil || res.Spanner.M() != 0 {
		t.Errorf("single vertex: %v", err)
	}
	// Two vertices, one edge.
	g2 := graph.New(2)
	g2.AddEdge(0, 1, 0.5)
	res, err := Build([]geom.Point{{0, 0}, {0.5, 0}}, g2, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spanner.HasEdge(0, 1) {
		t.Error("two-vertex spanner must keep the only edge")
	}
	// Empty edge set.
	g3 := graph.New(3)
	if res, err := Build([]geom.Point{{0, 0}, {5, 5}, {9, 9}}, g3, Options{Params: p}); err != nil || res.Spanner.M() != 0 {
		t.Errorf("edgeless graph: %v", err)
	}
}

// TestBuildCoveredFilterReducesQueries: with the filter on, strictly fewer
// (or equal) queries should be issued than with it off, and output should
// be sparser or equal.
func TestBuildCoveredFilterReducesQueries(t *testing.T) {
	inst := buildInstance(t, 90, 2, 0.75, ubg.ModelAll, 15_000)
	p := mustParams(t, 0.5, 0.75, 2)
	on, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Build(inst.Points, inst.G, Options{Params: p, DisableCoveredFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.Covered == 0 {
		t.Error("covered filter never fired on a dense instance")
	}
	if on.Stats.Queried > off.Stats.Queried {
		t.Errorf("filter increased queries: %d > %d", on.Stats.Queried, off.Stats.Queried)
	}
}
