package metrics

import (
	"math"
	"math/rand"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/graph/graphtest"
	"topoctl/internal/greedy"
	"topoctl/internal/ubg"
)

func metInstance(t testing.TB, n int, seed int64) *ubg.Instance {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// bruteForceStretch computes stretch over all connected pairs via
// Floyd–Warshall — the reference for the edge-restricted Stretch.
func bruteForceStretch(g, sp *graph.Graph) float64 {
	dg := graphtest.FloydWarshall(g)
	ds := graphtest.FloydWarshall(sp)
	worst := 1.0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if math.IsInf(dg[u][v], 1) || dg[u][v] == 0 {
				continue
			}
			if math.IsInf(ds[u][v], 1) {
				return math.Inf(1)
			}
			if s := ds[u][v] / dg[u][v]; s > worst {
				worst = s
			}
		}
	}
	return worst
}

// TestStretchMatchesBruteForce: the edge-restricted computation must agree
// with the all-pairs definition (the classical spanner lemma).
func TestStretchMatchesBruteForce(t *testing.T) {
	inst := metInstance(t, 40, 60_000)
	for _, tval := range []float64{1.2, 1.5, 2.5} {
		sp := greedy.Spanner(inst.G, tval)
		fast := Stretch(inst.G, sp)
		slow := bruteForceStretch(inst.G, sp)
		if math.Abs(fast-slow) > 1e-9 {
			t.Errorf("t=%v: edge-restricted stretch %v != all-pairs %v", tval, fast, slow)
		}
	}
}

func TestStretchIdentity(t *testing.T) {
	inst := metInstance(t, 30, 61_000)
	if s := Stretch(inst.G, inst.G); s != 1 {
		t.Errorf("self stretch = %v, want 1", s)
	}
}

func TestStretchDisconnectedIsInf(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	sp := graph.New(3)
	sp.AddEdge(0, 1, 1)
	if s := Stretch(g, sp); !math.IsInf(s, 1) {
		t.Errorf("stretch of disconnected spanner = %v, want +Inf", s)
	}
}

func TestStretchVsWeightsEnergy(t *testing.T) {
	// Path 0-1-2 with unit edges; spanner misses 0-2 (Euclidean weight 2).
	// Under γ=2 weights the base edge weighs 4, the detour 1+1=2: stretch
	// 0.5 → clamped to 1? No: max(1, ...) — worst stays 1.
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 2)
	sp := graph.New(3)
	sp.AddEdge(0, 1, 1)
	sp.AddEdge(1, 2, 1)
	s := StretchVsWeights(g, sp, func(_, _ int, d float64) float64 { return d * d })
	if s != 1 {
		t.Errorf("energy stretch = %v, want 1 (detour cheaper in energy)", s)
	}
	// Euclidean stretch of the same pair is 1 (2/2), of course.
	if got := Stretch(g, sp); got != 1 {
		t.Errorf("euclidean stretch = %v", got)
	}
}

func TestDegreesAndWeightRatio(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	ds := Degrees(g)
	if ds.Max != 3 || math.Abs(ds.Avg-1.5) > 1e-12 {
		t.Errorf("Degrees = %+v", ds)
	}
	// WeightRatio of the graph vs itself: MST is 3 (star), total 3.
	if r := WeightRatio(g, g); math.Abs(r-1) > 1e-12 {
		t.Errorf("WeightRatio = %v", r)
	}
}

func TestPowerCost(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	// power(0)=2, power(1)=3, power(2)=3.
	if got := PowerCost(g); got != 8 {
		t.Errorf("PowerCost = %v, want 8", got)
	}
	if got := PowerCost(graph.New(2)); got != 0 {
		t.Errorf("PowerCost of empty = %v", got)
	}
}

func TestEvaluateReport(t *testing.T) {
	inst := metInstance(t, 50, 62_000)
	sp := greedy.Spanner(inst.G, 1.5)
	r := Evaluate("greedy", inst.G, sp)
	if r.Stretch > 1.5+1e-9 || r.Edges != sp.M() || r.MaxDegree != sp.MaxDegree() {
		t.Errorf("report inconsistent: %+v", r)
	}
	if r.WeightRatio < 1-1e-9 {
		t.Errorf("weight ratio below 1: %v", r.WeightRatio)
	}
	if r.PowerRatio <= 0 {
		t.Errorf("power ratio %v", r.PowerRatio)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

// TestLeapfrogViolationsDetectsPlantedViolation: two nearly-parallel close
// segments of equal length massively violate leapfrog for t2 near t — the
// detector must fire.
func TestLeapfrogViolationsDetectsPlantedViolation(t *testing.T) {
	pts := [][]float64{
		{0, 0}, {1, 0}, // edge A
		{0, 0.001}, {1, 0.001}, // edge B, parallel and adjacent
	}
	edges := []graph.Edge{
		{U: 0, V: 1, W: 1},
		{U: 2, V: 3, W: 1},
	}
	v := LeapfrogViolations(edges, func(i int) []float64 { return pts[i] }, 1.5, 1.6, 50, 2, 7)
	if v == 0 {
		t.Error("planted leapfrog violation not detected")
	}
}

// TestLeapfrogHoldsOnGreedyOutput: greedy spanner segments are the
// canonical leapfrog family.
func TestLeapfrogHoldsOnGreedyOutput(t *testing.T) {
	inst := metInstance(t, 60, 63_000)
	sp := greedy.Spanner(inst.G, 1.5)
	v := LeapfrogViolations(sp.Edges(), func(i int) []float64 { return inst.Points[i] }, 1.05, 1.5, 200, 4, 8)
	if v > 0 {
		t.Errorf("%d leapfrog violations on greedy output", v)
	}
}

func TestLeapfrogTrivialCases(t *testing.T) {
	if v := LeapfrogViolations(nil, nil, 1.1, 1.5, 10, 3, 1); v != 0 {
		t.Errorf("empty edge set: %d", v)
	}
	one := []graph.Edge{{U: 0, V: 1, W: 1}}
	if v := LeapfrogViolations(one, func(int) []float64 { return []float64{0, 0} }, 1.1, 1.5, 10, 3, 1); v != 0 {
		t.Errorf("single edge: %d", v)
	}
}

// TestStretchRandomizedAgainstBrute: fuzz the fast stretch on random sparse
// subgraphs (not just greedy outputs).
func TestStretchRandomizedAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(64_000))
	inst := metInstance(t, 30, 64_001)
	for trial := 0; trial < 10; trial++ {
		sp := graph.New(inst.G.N())
		// Random connected-ish subgraph: keep MST plus random extras.
		for _, e := range inst.G.MST() {
			sp.AddEdge(e.U, e.V, e.W)
		}
		for _, e := range inst.G.Edges() {
			if rng.Float64() < 0.2 && !sp.HasEdge(e.U, e.V) {
				sp.AddEdge(e.U, e.V, e.W)
			}
		}
		fast := Stretch(inst.G, sp)
		slow := bruteForceStretch(inst.G, sp)
		if math.Abs(fast-slow) > 1e-9 {
			t.Fatalf("trial %d: %v != %v", trial, fast, slow)
		}
	}
}
