package ubg

import (
	"math"
	"testing"

	"topoctl/internal/geom"
)

func testPoints(n int, seed int64) []geom.Point {
	return geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Side: 3, Seed: seed})
}

// TestUBGContract verifies the defining α-UBG properties for every grey
// zone model: pairs within α are always connected, pairs beyond 1 never.
func TestUBGContract(t *testing.T) {
	pts := testPoints(120, 40)
	for _, model := range []Model{ModelAll, ModelNone, ModelBernoulli, ModelFalloff, ModelObstacle} {
		cfg := Config{Alpha: 0.6, Model: model, P: 0.5, Seed: 9}
		g, err := Build(pts, cfg)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				d := geom.Dist(pts[i], pts[j])
				has := g.HasEdge(i, j)
				if d <= 0.6 && !has {
					t.Fatalf("%v: pair at distance %v <= alpha not connected", model, d)
				}
				if d > 1 && has {
					t.Fatalf("%v: pair at distance %v > 1 connected", model, d)
				}
			}
		}
	}
}

func TestUBGEdgeWeightsAreEuclidean(t *testing.T) {
	pts := testPoints(60, 41)
	g, err := Build(pts, Config{Alpha: 0.7, Model: ModelAll})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if math.Abs(e.W-geom.Dist(pts[e.U], pts[e.V])) > 1e-12 {
			t.Fatalf("edge weight %v != distance", e.W)
		}
	}
}

func TestModelAllVsNoneOrdering(t *testing.T) {
	pts := testPoints(100, 42)
	all, _ := Build(pts, Config{Alpha: 0.5, Model: ModelAll})
	none, _ := Build(pts, Config{Alpha: 0.5, Model: ModelNone})
	bern, _ := Build(pts, Config{Alpha: 0.5, Model: ModelBernoulli, P: 0.5, Seed: 1})
	if !(none.M() <= bern.M() && bern.M() <= all.M()) {
		t.Errorf("edge counts should be ordered: none=%d bern=%d all=%d", none.M(), bern.M(), all.M())
	}
	if none.M() == all.M() {
		t.Skip("degenerate instance: no grey-zone pairs")
	}
}

func TestModelNoneIsRadiusAlpha(t *testing.T) {
	pts := testPoints(80, 43)
	g, _ := Build(pts, Config{Alpha: 0.5, Model: ModelNone})
	for _, e := range g.Edges() {
		if e.W > 0.5 {
			t.Fatalf("ModelNone kept grey-zone edge of length %v", e.W)
		}
	}
}

func TestBernoulliDeterministicAcrossRebuilds(t *testing.T) {
	pts := testPoints(100, 44)
	a, _ := Build(pts, Config{Alpha: 0.4, Model: ModelBernoulli, P: 0.3, Seed: 7})
	b, _ := Build(pts, Config{Alpha: 0.4, Model: ModelBernoulli, P: 0.3, Seed: 7})
	if a.M() != b.M() {
		t.Fatalf("same seed, different graphs: %d vs %d", a.M(), b.M())
	}
	c, _ := Build(pts, Config{Alpha: 0.4, Model: ModelBernoulli, P: 0.3, Seed: 8})
	if a.M() == c.M() {
		t.Log("different seeds produced equal edge count (possible but unlikely); checking structure")
		same := true
		for _, e := range a.Edges() {
			if !c.HasEdge(e.U, e.V) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	pts := testPoints(100, 45)
	p0, _ := Build(pts, Config{Alpha: 0.5, Model: ModelBernoulli, P: 0, Seed: 1})
	none, _ := Build(pts, Config{Alpha: 0.5, Model: ModelNone})
	if p0.M() != none.M() {
		t.Errorf("P=0 should equal ModelNone: %d vs %d", p0.M(), none.M())
	}
	p1, _ := Build(pts, Config{Alpha: 0.5, Model: ModelBernoulli, P: 1, Seed: 1})
	all, _ := Build(pts, Config{Alpha: 0.5, Model: ModelAll})
	if p1.M() != all.M() {
		t.Errorf("P=1 should equal ModelAll: %d vs %d", p1.M(), all.M())
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Alpha: 0},
		{Alpha: -1},
		{Alpha: 1.5},
		{Alpha: 0.5, Model: ModelBernoulli, P: -0.1},
		{Alpha: 0.5, Model: ModelBernoulli, P: 1.1},
	} {
		if _, err := Build(testPoints(5, 1), cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1, 1}}
	if _, err := Build(pts, Config{Alpha: 0.5}); err == nil {
		t.Error("mixed dimensions should be rejected")
	}
}

func TestEmptyPointSet(t *testing.T) {
	g, err := Build(nil, Config{Alpha: 0.5})
	if err != nil || g.N() != 0 {
		t.Errorf("empty build: %v, n=%d", err, g.N())
	}
}

func TestGenerateConnected(t *testing.T) {
	for _, d := range []int{2, 3} {
		inst, err := GenerateConnected(
			geom.CloudConfig{Kind: geom.CloudUniform, N: 60, Dim: d, Seed: 5},
			Config{Alpha: 0.7, Model: ModelAll, Seed: 5},
		)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !inst.G.Connected() {
			t.Fatalf("d=%d: instance not connected", d)
		}
		if inst.G.N() != 60 {
			t.Fatalf("d=%d: n=%d", d, inst.G.N())
		}
	}
}

func TestGenerateConnectedGreyModels(t *testing.T) {
	for _, m := range []Model{ModelBernoulli, ModelFalloff, ModelObstacle} {
		inst, err := GenerateConnected(
			geom.CloudConfig{Kind: geom.CloudUniform, N: 50, Dim: 2, Seed: 6},
			Config{Alpha: 0.6, Model: m, P: 0.5, Seed: 6},
		)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !inst.G.Connected() {
			t.Fatalf("%v: not connected", m)
		}
	}
}

func TestObstacleModelBlocksSomething(t *testing.T) {
	// A dense corridor with obstacles should lose at least one grey edge
	// relative to ModelAll for some seed; try a few.
	pts := testPoints(150, 47)
	all, _ := Build(pts, Config{Alpha: 0.4, Model: ModelAll})
	blockedAny := false
	for seed := int64(0); seed < 5; seed++ {
		obs, _ := Build(pts, Config{Alpha: 0.4, Model: ModelObstacle, Seed: seed})
		if obs.M() < all.M() {
			blockedAny = true
			break
		}
	}
	if !blockedAny {
		t.Error("obstacle model never blocked any edge across 5 seeds")
	}
}

func TestPairRandProperties(t *testing.T) {
	// Symmetric in (u, v) and in [0, 1).
	for u := 0; u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			a := pairRand(3, u, v)
			b := pairRand(3, v, u)
			if a != b {
				t.Fatalf("pairRand not symmetric for (%d,%d)", u, v)
			}
			if a < 0 || a >= 1 {
				t.Fatalf("pairRand out of range: %v", a)
			}
		}
	}
}

func TestBallVolume(t *testing.T) {
	// V_2(r) = πr², V_3(r) = 4/3·πr³.
	if math.Abs(ballVolume(2, 1)-math.Pi) > 1e-9 {
		t.Errorf("V_2(1) = %v", ballVolume(2, 1))
	}
	if math.Abs(ballVolume(3, 1)-4*math.Pi/3) > 1e-9 {
		t.Errorf("V_3(1) = %v", ballVolume(3, 1))
	}
}

func TestModelString(t *testing.T) {
	tests := map[Model]string{
		ModelAll: "all", ModelNone: "none", ModelBernoulli: "bernoulli",
		ModelFalloff: "falloff", ModelObstacle: "obstacle", Model(0): "unknown",
	}
	for m, want := range tests {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}
