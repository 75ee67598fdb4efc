package baseline

import (
	"math"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/graph/graphtest"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

func blInstance(t testing.TB, n int, alpha float64, seed int64) *ubg.Instance {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: alpha, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestClassicalInclusionChain: MST ⊆ RNG ⊆ Gabriel — the textbook proximity
// graph hierarchy, here restricted to UDG edges (alpha = 1 keeps the
// restriction immaterial for MST edges).
func TestClassicalInclusionChain(t *testing.T) {
	inst := blInstance(t, 120, 1.0, 40_000)
	mst := graph.FromEdges(inst.G.N(), inst.G.MST())
	rng := RNG(inst.Points, inst.G)
	gg := Gabriel(inst.Points, inst.G)
	if !graphtest.IsSubgraphOf(mst, rng) {
		t.Error("MST ⊄ RNG")
	}
	if !graphtest.IsSubgraphOf(rng, gg) {
		t.Error("RNG ⊄ Gabriel")
	}
	if !graphtest.IsSubgraphOf(gg, inst.G) {
		t.Error("Gabriel ⊄ G")
	}
}

// TestAllBaselinesConnectedOnUDG: on a connected UDG every baseline must
// stay connected (all contain an MST or are known connectivity-preserving).
func TestAllBaselinesConnectedOnUDG(t *testing.T) {
	inst := blInstance(t, 100, 1.0, 41_000)
	for _, kind := range Kinds() {
		g, err := Build(kind, inst.Points, inst.G, Options{T: 1.5})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !g.Connected() {
			t.Errorf("%v: disconnected output", kind)
		}
		if !graphtest.IsSubgraphOf(g, inst.G) {
			t.Errorf("%v: output is not a subgraph", kind)
		}
	}
}

// TestYaoDegreeAndSparsity: Yao keeps at most one outgoing edge per cone, so
// edge count is at most n·cones and out-degree per cone is 1 (total degree
// may exceed it due to incoming edges).
func TestYaoDegreeAndSparsity(t *testing.T) {
	inst := blInstance(t, 150, 1.0, 42_000)
	theta := math.Pi / 3
	yao := Yao(inst.Points, inst.G, theta)
	cones := len(geom.NewConePartition(2, theta).Axes)
	if yao.M() > inst.G.N()*cones {
		t.Errorf("Yao too dense: %d edges", yao.M())
	}
	if yao.M() >= inst.G.M() && inst.G.M() > inst.G.N()*cones {
		t.Errorf("Yao did not sparsify: %d vs %d", yao.M(), inst.G.M())
	}
}

// TestYaoKeepsShortestPerCone: hand-built scene where node 0 sees two
// neighbors in one cone (keeps the closer) and node 2 has a closer
// same-cone alternative (so the union symmetrization does not resurrect the
// long edge).
func TestYaoKeepsShortestPerCone(t *testing.T) {
	points := []geom.Point{{0, 0}, {0.5, 0.01}, {0.9, 0.0}, {0.7, 0.0}}
	g := graph.New(4)
	g.AddEdge(0, 1, geom.Dist(points[0], points[1]))
	g.AddEdge(0, 2, geom.Dist(points[0], points[2]))
	g.AddEdge(2, 3, geom.Dist(points[2], points[3]))
	yao := Yao(points, g, math.Pi/3)
	if !yao.HasEdge(0, 1) {
		t.Error("closer same-cone neighbor dropped")
	}
	if !yao.HasEdge(2, 3) {
		t.Error("node 2's pick dropped")
	}
	if yao.HasEdge(0, 2) {
		t.Error("farther same-cone neighbor kept")
	}
}

// TestGabrielWitnessRule on a hand-built scene: the midpoint witness kills
// the long edge.
func TestGabrielWitnessRule(t *testing.T) {
	points := []geom.Point{{0, 0}, {1, 0}, {0.5, 0.05}}
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			g.AddEdge(i, j, geom.Dist(points[i], points[j]))
		}
	}
	gg := Gabriel(points, g)
	if gg.HasEdge(0, 1) {
		t.Error("edge with in-ball witness survived")
	}
	if !gg.HasEdge(0, 2) || !gg.HasEdge(1, 2) {
		t.Error("witness edges dropped")
	}
}

// TestRNGLuneRule: a witness in the lune kills the edge even when it is
// outside the diameter ball (RNG is stricter than Gabriel).
func TestRNGLuneRule(t *testing.T) {
	points := []geom.Point{{0, 0}, {1, 0}, {0.5, 0.6}}
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			g.AddEdge(i, j, geom.Dist(points[i], points[j]))
		}
	}
	rng := RNG(points, g)
	gg := Gabriel(points, g)
	if rng.HasEdge(0, 1) {
		t.Error("RNG kept edge with lune witness")
	}
	if !gg.HasEdge(0, 1) {
		t.Error("Gabriel dropped edge whose witness is outside the diameter ball")
	}
}

// TestXTCSymmetricAndSparse: XTC output must be symmetric (by construction
// it is a simple undirected graph) and strictly sparser than a dense input.
func TestXTCSparse(t *testing.T) {
	inst := blInstance(t, 120, 1.0, 43_000)
	xtc := XTC(inst.G)
	if xtc.M() >= inst.G.M() {
		t.Errorf("XTC did not sparsify: %d vs %d", xtc.M(), inst.G.M())
	}
	// Known fact: on UDGs, XTC ⊆ RNG.
	rng := RNG(inst.Points, inst.G)
	if !graphtest.IsSubgraphOf(xtc, rng) {
		t.Error("XTC ⊄ RNG on a UDG")
	}
}

// TestXTCWitnessRule on a triangle: the two short edges survive, the long
// one is dropped.
func TestXTCWitnessRule(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1.0)
	g.AddEdge(1, 2, 0.6)
	g.AddEdge(0, 2, 0.5)
	xtc := XTC(g)
	if xtc.HasEdge(0, 1) {
		t.Error("long triangle edge survived XTC")
	}
	if !xtc.HasEdge(1, 2) || !xtc.HasEdge(0, 2) {
		t.Error("short triangle edges dropped")
	}
}

// TestLMSTLowDegree: LMST is famously degree-<=6 in the plane; allow a
// small numerical cushion.
func TestLMSTLowDegree(t *testing.T) {
	inst := blInstance(t, 150, 1.0, 44_000)
	lmst := LMST(inst.G)
	if d := lmst.MaxDegree(); d > 6 {
		t.Errorf("LMST max degree %d > 6", d)
	}
	if !lmst.Connected() {
		t.Error("LMST disconnected")
	}
}

// TestGreedyBaselineStretch: the SEQ-GREEDY baseline honours its stretch.
func TestGreedyBaselineStretch(t *testing.T) {
	inst := blInstance(t, 90, 0.8, 45_000)
	sp, err := Build(KindGreedy, inst.Points, inst.G, Options{T: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stretch(inst.G, sp); s > 1.4+1e-9 {
		t.Errorf("greedy stretch %v", s)
	}
}

// TestMSTBaselineIsLightest: every other baseline weighs at least the MST.
func TestMSTBaselineIsLightest(t *testing.T) {
	inst := blInstance(t, 100, 1.0, 46_000)
	mst, _ := Build(KindMST, inst.Points, inst.G, Options{})
	w := mst.TotalWeight()
	for _, kind := range Kinds()[1:] {
		g, err := Build(kind, inst.Points, inst.G, Options{T: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		if g.TotalWeight() < w-1e-9 {
			t.Errorf("%v weighs %v < MST %v", kind, g.TotalWeight(), w)
		}
	}
}

func TestBuildUnknownKind(t *testing.T) {
	inst := blInstance(t, 10, 1.0, 47_000)
	if _, err := Build(Kind(99), inst.Points, inst.G, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindMST: "mst", KindYao: "yao", KindGabriel: "gabriel", KindRNG: "rng",
		KindXTC: "xtc", KindLMST: "lmst", KindGreedy: "seq-greedy", Kind(0): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestYaoEmptyAndTiny: degenerate inputs.
func TestYaoEmptyAndTiny(t *testing.T) {
	if Yao(nil, graph.New(0), 1).N() != 0 {
		t.Error("empty Yao wrong")
	}
	points := []geom.Point{{0, 0}, {0.5, 0}}
	g := graph.New(2)
	g.AddEdge(0, 1, 0.5)
	if !Yao(points, g, 1).HasEdge(0, 1) {
		t.Error("two-node Yao must keep the edge")
	}
}
