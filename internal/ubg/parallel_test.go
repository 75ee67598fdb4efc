package ubg

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// naiveEdges is the quadratic reference: every pair within distance 1
// tested directly against the grey-zone acceptance rule.
func naiveEdges(t *testing.T, points []geom.Point, cfg Config) []graph.Edge {
	t.Helper()
	if cfg.Model == 0 {
		cfg.Model = ModelAll
	}
	keep := greyKeep(points, cfg)
	var es []graph.Edge
	for u := range points {
		for v := u + 1; v < len(points); v++ {
			d2 := geom.DistSq(points[u], points[v])
			if d2 > 1 {
				continue
			}
			d := math.Sqrt(d2)
			if keep != nil && !keep(u, v, d) {
				continue
			}
			es = append(es, graph.Edge{U: u, V: v, W: d})
		}
	}
	return es
}

func sortEdges(es []graph.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

func edgesEqual(t *testing.T, got, want []graph.Edge, label string) {
	t.Helper()
	sortEdges(got)
	sortEdges(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].U != want[i].U || got[i].V != want[i].V || got[i].W != want[i].W {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestBuildFrozenMatchesNaive pins the parallel slab-backed path against
// the quadratic reference for every grey-zone model in 2 and 3 dimensions.
func TestBuildFrozenMatchesNaive(t *testing.T) {
	cfgs := []Config{
		{Alpha: 1, Model: ModelAll},
		{Alpha: 0.6, Model: ModelAll},
		{Alpha: 0.6, Model: ModelNone},
		{Alpha: 0.5, Model: ModelBernoulli, P: 0.4, Seed: 9},
		{Alpha: 0.5, Model: ModelFalloff, Seed: 11},
		{Alpha: 0.5, Model: ModelObstacle, Seed: 13},
	}
	for _, d := range []int{2, 3} {
		pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: 250, Dim: d, Seed: int64(41 + d), Side: 3})
		for _, cfg := range cfgs {
			f, err := BuildFrozen(pts, cfg)
			if err != nil {
				t.Fatalf("BuildFrozen(%v): %v", cfg.Model, err)
			}
			label := cfg.Model.String()
			edgesEqual(t, f.EdgesUnordered(), naiveEdges(t, pts, cfg), label)
			if f.N() != len(pts) {
				t.Fatalf("%s: N = %d, want %d", label, f.N(), len(pts))
			}
			// Build (the mutable wrapper) must agree with its own snapshot.
			g, err := Build(pts, cfg)
			if err != nil {
				t.Fatalf("Build(%v): %v", cfg.Model, err)
			}
			edgesEqual(t, g.EdgesUnordered(), f.EdgesUnordered(), label+"/thaw")
			if g.M() != f.M() || g.MaxDegree() != f.MaxDegree() {
				t.Fatalf("%s: thawed aggregates diverge", label)
			}
		}
	}
}

// TestBuildFrozenDeterministic requires bit-identical output regardless of
// worker count: acceptance is per-pair deterministic, cells are owned by
// single workers, and row fill order follows the fixed neighbor-cell scan.
func TestBuildFrozenDeterministic(t *testing.T) {
	pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: 400, Dim: 2, Seed: 5, Side: 4})
	cfg := Config{Alpha: 0.6, Model: ModelBernoulli, P: 0.5, Seed: 77}

	prev := runtime.GOMAXPROCS(1)
	seq, err := BuildFrozen(pts, cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	par, err := BuildFrozen(pts, cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if seq.M() != par.M() || seq.TotalWeight() != par.TotalWeight() {
		t.Fatalf("worker count changed the graph: m %d/%d", seq.M(), par.M())
	}
	for u := 0; u < seq.N(); u++ {
		a, b := seq.Neighbors(u), par.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: row lengths differ across worker counts", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d: row order differs across worker counts", u)
			}
		}
	}
}

func TestBuildRadius(t *testing.T) {
	pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: 200, Dim: 2, Seed: 3, Side: 3})
	const radius = 0.45
	f, err := BuildRadius(pts, radius)
	if err != nil {
		t.Fatal(err)
	}
	var want []graph.Edge
	for u := range pts {
		for v := u + 1; v < len(pts); v++ {
			if d2 := geom.DistSq(pts[u], pts[v]); d2 <= radius*radius {
				want = append(want, graph.Edge{U: u, V: v, W: math.Sqrt(d2)})
			}
		}
	}
	edgesEqual(t, f.EdgesUnordered(), want, "radius")

	if _, err := BuildRadius(pts, 0); err == nil {
		t.Fatal("BuildRadius(0) must fail")
	}
	if _, err := BuildRadius([]geom.Point{{0, 0}, {1}}, 1); err == nil {
		t.Fatal("mixed dimensions must fail")
	}
}

func TestBuildFrozenEdgeCases(t *testing.T) {
	// Empty and singleton inputs.
	f, err := BuildFrozen(nil, Config{Alpha: 1})
	if err != nil || f.N() != 0 || f.M() != 0 {
		t.Fatalf("empty build: %v n=%d m=%d", err, f.N(), f.M())
	}
	f, err = BuildFrozen([]geom.Point{{0.5, 0.5}}, Config{Alpha: 1})
	if err != nil || f.N() != 1 || f.M() != 0 {
		t.Fatalf("singleton build: %v n=%d m=%d", err, f.N(), f.M())
	}
	// Invalid config and mixed dimensions surface as errors.
	if _, err := BuildFrozen(nil, Config{Alpha: 0}); err == nil {
		t.Fatal("alpha 0 must fail")
	}
	if _, err := BuildFrozen([]geom.Point{{0, 0}, {1}}, Config{Alpha: 1}); err == nil {
		t.Fatal("mixed dimensions must fail")
	}
	if _, err := BuildFrozen([]geom.Point{{}, {}}, Config{Alpha: 1}); err == nil {
		t.Fatal("zero-dimensional points must fail")
	}
	// Coincident points: distance 0 pairs connect, self never does.
	f, err = BuildFrozen([]geom.Point{{1, 1}, {1, 1}, {1, 1}}, Config{Alpha: 0.5})
	if err != nil || f.M() != 3 {
		t.Fatalf("coincident build: %v m=%d, want 3", err, f.M())
	}
}
