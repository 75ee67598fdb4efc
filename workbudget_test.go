package topoctl

import (
	"runtime"
	"testing"

	"topoctl/internal/core"
	"topoctl/internal/dist"
)

// TestWorkBudget gates counters that, unlike wall time, do not depend on
// machine load: each row runs a workload at fixed seeds and fails when a
// counter exceeds its ceiling. A ceiling is the value measured when the row
// was last tightened plus the stated headroom, which absorbs the few
// allocations sync.Pool reuse moves from run to run. A change that lowers a
// counter tightens its ceiling; raising one is a decision to record with
// its reason.
//
// The builder rows run core.Build and dist.Build once each at n=2,048 on
// the builders' benchmark instance (BenchmarkCoreBuild/n=2048: uniform
// plane, α = 0.75, expected degree 8, ε = 0.5, seed 1).
func TestWorkBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	inst := benchInstanceDensity(t, 2048, 8)
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name                string
		maxAllocs, maxBytes uint64
		build               func() error
	}{
		// Measured: 76,348 allocations, 7.15 MB. Headroom 10 %.
		{"core.Build/n=2048", 84_000, 7_900_000, func() error {
			_, err := core.Build(inst.Points, inst.G, core.Options{Params: p})
			return err
		}},
		// Measured: 79,354 allocations, 24.6 MB. Headroom 10 %.
		{"dist.Build/n=2048", 87_000, 27_100_000, func() error {
			_, err := dist.Build(inst.Points, inst.G, dist.Options{Params: p, Seed: 1})
			return err
		}},
	} {
		allocs, bytes, err := workOf(row.build)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		t.Logf("%s: %d allocations, %d bytes", row.name, allocs, bytes)
		if allocs > row.maxAllocs {
			t.Errorf("%s: %d allocations per build, ceiling %d", row.name, allocs, row.maxAllocs)
		}
		if bytes > row.maxBytes {
			t.Errorf("%s: %d bytes allocated per build, ceiling %d", row.name, bytes, row.maxBytes)
		}
	}
}

// workOf runs f once to warm the searcher pool, then again from a
// collected heap, and returns the second run's allocation count and bytes.
func workOf(f func() error) (allocs, bytes uint64, err error) {
	if err := f(); err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}
