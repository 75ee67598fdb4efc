package topoctl

// Large-scale build smoke test, exercised by `make build-large-smoke` (and
// the CI step of the same name). It is opt-in via the BUILD_LARGE
// environment variable so the tier-1 `go test ./...` run stays fast; the
// point is a budgeted end-to-end pass over the million-vertex machinery at
// a size CI can afford: parallel frozen-CSR build, dynamic bulk load,
// spanner construction, and sampled stretch verification.

import (
	"os"
	"testing"
	"time"

	"topoctl/internal/analyze"
	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/ubg"
)

func TestBuildLargeSmoke(t *testing.T) {
	if os.Getenv("BUILD_LARGE") == "" {
		t.Skip("set BUILD_LARGE=1 to run the large build smoke test")
	}
	if testing.Short() {
		t.Skip("skipping large build in -short mode")
	}
	const n = 131072
	start := time.Now()
	pts := geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: n, Dim: 2, Side: ubg.DensitySide(n, 2, 1, 8), Seed: 1,
	})
	f, err := ubg.BuildFrozen(pts, ubg.Config{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	buildDone := time.Now()
	if f.N() != n || f.M() == 0 {
		t.Fatalf("degenerate build: n=%d m=%d", f.N(), f.M())
	}
	avgDeg := 2 * float64(f.M()) / float64(n)
	if avgDeg < 4 || avgDeg > 16 {
		t.Fatalf("average degree %.1f far from the density target 8", avgDeg)
	}

	const stretchT = 1.5
	eng, err := dynamic.New(pts, dynamic.Options{T: stretchT})
	if err != nil {
		t.Fatal(err)
	}
	engineDone := time.Now()
	base, sp := eng.Base(), eng.Spanner()
	if base.M() != f.M() {
		t.Fatalf("bulk engine base has %d edges, frozen build %d", base.M(), f.M())
	}
	if sp.M() == 0 || sp.M() > base.M() {
		t.Fatalf("implausible spanner: %d edges of %d base", sp.M(), base.M())
	}

	// Sampled verification: the stretch probe on 4096 edges bounds stretch
	// violations to ≤0.12% of base edges at 99% confidence, and the
	// observed maximum must obey the configured bound.
	probe := analyze.ProbeStretch(analyze.View{Points: pts, Base: base, Spanner: sp, T: stretchT}, 4096, 1, analyze.Options{})
	worst, disconnected := probe.Worst()
	if disconnected > 0 {
		t.Fatalf("%d sampled base edges have no spanner path", disconnected)
	}
	if worst > stretchT+1e-9 {
		t.Fatalf("sampled stretch %.4f exceeds bound %v", worst, stretchT)
	}
	t.Logf("n=%d m=%d: build %v, engine+spanner %v, sampled stretch %.4f over %d edges (≤%.2f%% may exceed, %.0f%% confidence)",
		n, f.M(), buildDone.Sub(start).Round(time.Millisecond),
		engineDone.Sub(buildDone).Round(time.Millisecond),
		worst, len(probe.Checked), 100*probe.ViolationBound(), 100*analyze.ProbeConfidence)
}
