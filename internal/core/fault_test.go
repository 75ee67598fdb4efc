package core

import (
	"testing"

	"topoctl/internal/fault"
	"topoctl/internal/graph"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// TestFaultTolerantRelaxedBuild validates the §1.6.1 extension on the
// relaxed algorithm itself: the FaultK=k output must survive k random edge
// faults with its stretch intact, across injection trials.
func TestFaultTolerantRelaxedBuild(t *testing.T) {
	inst := buildInstance(t, 90, 2, 0.9, ubg.ModelAll, 90_000)
	p := mustParams(t, 0.5, 0.9, 2)
	for _, k := range []int{1, 2} {
		res, err := Build(inst.Points, inst.G, Options{Params: p, FaultK: k})
		if err != nil {
			t.Fatal(err)
		}
		// Base property first.
		if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
			t.Errorf("k=%d: base stretch %v > t", k, s)
		}
		chk := fault.CheckFaults(inst.G, res.Spanner, p.T, k, 30, fault.EdgeFaults, 11)
		if chk.Violations > 0 {
			t.Errorf("k=%d: %d/%d fault trials violated (worst %v)",
				k, chk.Violations, chk.Trials, chk.WorstStretch)
		}
	}
}

// TestFaultTolerantRelaxedDenser: tolerance must cost edges, monotonically
// in k.
func TestFaultTolerantRelaxedDenser(t *testing.T) {
	inst := buildInstance(t, 90, 2, 0.9, ubg.ModelAll, 91_000)
	p := mustParams(t, 0.5, 0.9, 2)
	var prev int
	for _, k := range []int{0, 1, 2} {
		res, err := Build(inst.Points, inst.G, Options{Params: p, FaultK: k})
		if err != nil {
			t.Fatal(err)
		}
		if res.Spanner.M() < prev {
			t.Errorf("k=%d spanner (%d edges) sparser than k-1 (%d)", k, res.Spanner.M(), prev)
		}
		prev = res.Spanner.M()
	}
}

// TestFaultTolerantDegreeStillModest: k+1 query edges per cluster pair must
// keep the degree bounded (Lemma 4 argument scales by k+1).
func TestFaultTolerantDegreeStillModest(t *testing.T) {
	inst := buildInstance(t, 120, 2, 0.9, ubg.ModelAll, 92_000)
	p := mustParams(t, 0.5, 0.9, 2)
	res, err := Build(inst.Points, inst.G, Options{Params: p, FaultK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Spanner.MaxDegree(); d > 24 {
		t.Errorf("k=1 max degree %d outside the constant band", d)
	}
}

func TestNeedsEdgeRules(t *testing.T) {
	// H: a 4-cycle with unit edges; query edge 0-2 with weight 1.9.
	h := graph.New(4)
	h.AddEdge(0, 1, 1)
	h.AddEdge(1, 2, 1)
	h.AddEdge(2, 3, 1)
	h.AddEdge(3, 0, 1)
	q := EdgeInfo{U: 0, V: 2, Dist: 1.9, W: 1.9}
	// needsEdge with stretch t and FaultK k on h, read as an all-singleton
	// phase's partial spanner (edge faults).
	needsEdge := func(t float64, k int) bool {
		b := &builder{opts: Options{FaultK: k}, p: Params{T: t}}
		return b.needsEdge(&frozen{sp: h, s: graph.NewSearcher(h.N())}, q)
	}
	// t = 1.1: bound 2.09; one 2-path exists → not needed for k=0.
	if needsEdge(1.1, 0) {
		t.Error("k=0: edge demanded despite a t-path")
	}
	// k=1: needs two edge-disjoint paths — the cycle has exactly two → ok.
	if needsEdge(1.1, 1) {
		t.Error("k=1: edge demanded despite two disjoint t-paths")
	}
	// k=2: only two disjoint paths exist → needed.
	if !needsEdge(1.1, 2) {
		t.Error("k=2: edge not demanded with only two disjoint paths")
	}
	// Tight bound excludes the paths entirely.
	if !needsEdge(1.0, 0) {
		t.Error("bound too tight but edge not demanded")
	}
}

// TestInsertScoredKeepsBest exercises the per-pair top-(k+1) buffer.
func TestInsertScoredKeepsBest(t *testing.T) {
	var list []scoredEdge
	for i, s := range []float64{5, 3, 4, 1, 2} {
		list = insertScored(list, scoredEdge{e: EdgeInfo{U: i, V: i + 10}, score: s}, 3)
	}
	if len(list) != 3 {
		t.Fatalf("len = %d", len(list))
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if list[i].score != w {
			t.Errorf("list[%d].score = %v, want %v", i, list[i].score, w)
		}
	}
}

// TestSelectQueriesPerPairExtra: with PerPairExtra = 1 each populated
// cluster pair contributes up to two query edges.
func TestSelectQueriesPerPairExtra(t *testing.T) {
	inst := buildInstance(t, 80, 2, 0.8, ubg.ModelAll, 93_000)
	p := mustParams(t, 0.5, 0.8, 2)
	one, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Build(inst.Points, inst.G, Options{Params: p, FaultK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if two.Stats.Queried <= one.Stats.Queried {
		t.Errorf("k=1 queried %d <= k=0 queried %d", two.Stats.Queried, one.Stats.Queried)
	}
}

// TestFaultTolerantRelaxedVertexMode: the strictly stronger vertex-fault
// guarantee on the relaxed algorithm.
func TestFaultTolerantRelaxedVertexMode(t *testing.T) {
	inst := buildInstance(t, 80, 2, 0.9, ubg.ModelAll, 94_000)
	p := mustParams(t, 0.5, 0.9, 2)
	res, err := Build(inst.Points, inst.G, Options{Params: p, FaultK: 1, FaultVertexMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
		t.Errorf("base stretch %v > t", s)
	}
	chk := fault.CheckFaults(inst.G, res.Spanner, p.T, 1, 25, fault.VertexFaults, 13)
	if chk.Violations > 0 {
		t.Errorf("%d/%d vertex-fault trials violated (worst %v)", chk.Violations, chk.Trials, chk.WorstStretch)
	}
	// Vertex mode must be at least as dense as edge mode.
	edge, err := Build(inst.Points, inst.G, Options{Params: p, FaultK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spanner.M() < edge.Spanner.M() {
		t.Errorf("vertex-mode spanner (%d) sparser than edge-mode (%d)", res.Spanner.M(), edge.Spanner.M())
	}
}
