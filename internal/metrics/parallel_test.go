package metrics

// Race and determinism coverage for the parallel stretch verifier: the
// worst-stretch result must be bit-identical regardless of worker count,
// and concurrent verification over shared graphs must be race-clean (this
// file is exercised under -race by the CI target).

import (
	"math"
	"sync"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/ubg"
)

func stretchInstance(t *testing.T, n int, seed int64) (*graph.Graph, *graph.Graph) {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst.G, greedy.Spanner(inst.G, 1.5)
}

func TestStretchParallelWorkerCountInvariant(t *testing.T) {
	g, sp := stretchInstance(t, 150, 5)
	want := StretchParallel(g, sp, 1)
	if want <= 1 || want > 1.5+1e-9 {
		t.Fatalf("sequential stretch %v outside (1, 1.5]", want)
	}
	for workers := 2; workers <= 16; workers *= 2 {
		if got := StretchParallel(g, sp, workers); got != want {
			t.Fatalf("workers=%d: stretch %v != sequential %v", workers, got, want)
		}
	}
	if got := Stretch(g, sp); got != want {
		t.Fatalf("Stretch (default workers) %v != sequential %v", got, want)
	}
}

func TestStretchParallelDisconnected(t *testing.T) {
	g, _ := stretchInstance(t, 60, 7)
	empty := graph.New(g.N())
	for workers := 1; workers <= 8; workers *= 2 {
		if got := StretchParallel(g, empty, workers); !math.IsInf(got, 1) {
			t.Fatalf("workers=%d: stretch of empty spanner = %v, want +Inf", workers, got)
		}
	}
}

// TestStretchConcurrentCallers runs several full verifications over the
// same shared graphs at once — the pattern the parallel experiment harness
// produces — so the race detector sees overlapping pooled Searchers.
func TestStretchConcurrentCallers(t *testing.T) {
	g, sp := stretchInstance(t, 100, 9)
	want := StretchParallel(g, sp, 1)
	var wg sync.WaitGroup
	results := make([]float64, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = StretchParallel(g, sp, 4)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got != want {
			t.Fatalf("concurrent caller %d: stretch %v != %v", i, got, want)
		}
	}
}

func TestHopStretchParallelMatchesDirect(t *testing.T) {
	g, sp := stretchInstance(t, 80, 13)
	got := HopStretch(g, sp)
	// Reference: one full sequential BFS per edge (HopBall at unbounded
	// depth — a different kernel from the early-exit HopsTo under test).
	worst := 1.0
	search := graph.NewSearcher(sp.N())
	for _, e := range g.Edges() {
		if sp.HasEdge(e.U, e.V) {
			continue
		}
		h := math.Inf(1)
		for _, vh := range search.HopBall(sp, e.U, sp.N()) {
			if vh.V == e.V {
				h = float64(vh.Hops)
			}
		}
		if h > worst {
			worst = h
		}
	}
	if got != worst {
		t.Fatalf("HopStretch %v != reference %v", got, worst)
	}
}
