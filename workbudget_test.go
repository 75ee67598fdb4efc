package topoctl

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"topoctl/internal/core"
	"topoctl/internal/dist"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/labels"
	"topoctl/internal/replica"
	"topoctl/internal/routing"
	"topoctl/internal/service"
	"topoctl/internal/wal"
	"topoctl/internal/wal/faultfs"
)

// counts maps a counter's name to its value (or, in a row, its ceiling).
type counts map[string]float64

// TestWorkBudget gates counters that, unlike wall time, do not depend on
// machine load: each row runs a workload at fixed seeds and fails when a
// counter exceeds its ceiling. A ceiling is the value measured when the row
// was last tightened plus the stated headroom: allocation and byte counts
// get 10 %, which absorbs the few allocations sync.Pool reuse moves from
// run to run; search, cover and label counts are deterministic and get
// none. A change that lowers a counter tightens its ceiling; raising one is
// a decision to record with its reason.
//
// The builder rows run core.Build and dist.Build at n=2,048 on the
// builders' benchmark instance (BenchmarkCoreBuild/n=2048: uniform
// plane, α = 0.75, expected degree 8, ε = 0.5, seed 1). The serving rows
// run at n=4,096 on BenchmarkRouteUncached/n=4096's instance (expected
// degree 8, seed 1) and its frozen greedy 1.5-spanner.
func TestWorkBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small := benchInstanceDensity(t, 2048, 8)
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := benchInstanceDensity(t, 4096, 8)
	sp := graph.Freeze(greedy.Spanner(inst.G, 1.5))
	for _, row := range []struct {
		name    string
		count   func() (counts, error)
		ceiling counts
	}{
		// Measured: 10,120 allocations, 2.38 MB. Headroom 10 %.
		{"core.Build/n=2048", workOf(func() error {
			_, err := core.Build(small.Points, small.G, core.Options{Params: p})
			return err
		}), counts{"allocations": 11_140, "bytes": 2_620_000}},
		// Measured: 40,949 vertices settled by 21,714 searches answering
		// the phases' queries and finding their redundant pairs. Balls
		// of radius t1·W_i and shortest G′ paths settled 73,509.
		{"core.Build settled/n=2048", func() (counts, error) {
			res, err := core.Build(small.Points, small.G, core.Options{Params: p})
			if err != nil {
				return nil, err
			}
			return counts{"settled": float64(res.Searches.Settled), "searches": float64(res.Searches.Searches)}, nil
		}, counts{"settled": 40_949, "searches": 21_714}},
		// Measured: 12 of the 8,190 queries fell back to the cluster graph
		// (1 of them decided by it); every other query of a phase with a
		// cluster was answered on the partial spanner.
		{"core.Build queries/n=2048", func() (counts, error) {
			res, err := core.Build(small.Points, small.G, core.Options{Params: p})
			if err != nil {
				return nil, err
			}
			return counts{"queries on H": float64(res.Stats.QueriesOnH)}, nil
		}, counts{"queries on H": 12}},
		// Measured: 2,250 per-vertex steps of the phases' covers outside
		// their ball searches: 2,048 for the first cover's storage, then
		// the short-edge vertices of each phase. A cover that scans all n
		// vertices per phase would take 132 × 2,048.
		{"core.Build cover visits/n=2048", func() (counts, error) {
			res, err := core.Build(small.Points, small.G, core.Options{Params: p})
			if err != nil {
				return nil, err
			}
			return counts{"cover visits": float64(res.CoverVisits)}, nil
		}, counts{"cover visits": 2250}},
		// Measured: 10,596 allocations, 2.65 MB. Headroom 10 %.
		{"dist.Build/n=2048", workOf(func() error {
			_, err := dist.Build(small.Points, small.G, dist.Options{Params: p, Seed: 1})
			return err
		}), counts{"allocations": 11_660, "bytes": 2_920_000}},
		// Measured: 2,354: core.Build's 2,250, as the elected covers
		// attach over the short-edge vertices the peel runs over, plus
		// the election's 104 derived-graph rows, one per short-edge
		// vertex of a phase. An election or attachment over all n
		// vertices per phase would add 132 × 2,048.
		{"dist.Build cover visits/n=2048", func() (counts, error) {
			res, err := dist.Build(small.Points, small.G, dist.Options{Params: p, Seed: 1})
			if err != nil {
				return nil, err
			}
			return counts{"cover visits": float64(res.CoverVisits)}, nil
		}, counts{"cover visits": 2354}},
		// Measured: 99,987 settled over 256 queries, 390.57 per query.
		{"uncached A* route/n=4096", func() (counts, error) {
			return settledPerRoute(sp, inst.Points)
		}, counts{"settled/query": 390.6}},
		// Measured: 19 allocations, 170,448 bytes; the grid's array cell
		// keys make a move allocate no key. Allocations get no headroom
		// (the count has not varied from run to run), bytes 10 %.
		{"service commit, one move/n=4096", func() (counts, error) {
			return commitWork(inst.Points)
		}, counts{"allocations": 19, "bytes": 187_500}},
		// Measured: 76 allocations, 355,008 bytes, with the frame record
		// written raw; gzip from a pooled writer took 86 and 357,176.
		// Headroom 10 %.
		{"durable commit, 4 moves/n=4096", func() (counts, error) {
			return durableCommitWork(inst.Points)
		}, counts{"allocations": 84, "bytes": 391_000}},
		// Measured: 106.00 entries per vertex in the nested-dissection
		// hub order; the cluster-cover order took 144.68.
		{"labels.Build/n=4096", func() (counts, error) {
			st := labels.Build(sp, labels.Options{}).Stats()
			return counts{"entries/vertex": float64(st.Entries) / float64(st.Vertices)}, nil
		}, counts{"entries/vertex": 106.0}},
	} {
		got, err := row.count()
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for _, name := range slices.Sorted(maps.Keys(row.ceiling)) {
			t.Logf("%s: %s %.2f", row.name, name, got[name])
			if got[name] > row.ceiling[name] {
				t.Errorf("%s: %s %.2f, ceiling %.2f", row.name, name, got[name], row.ceiling[name])
			}
		}
	}
}

// settledPerRoute routes BenchmarkRouteUncached's 256 query pairs over sp
// on a router declared Euclidean, so each route is one A* search, and
// returns the vertices settled per query.
func settledPerRoute(sp *graph.Frozen, points []geom.Point) (counts, error) {
	router, err := routing.NewRouter(sp, points)
	if err != nil {
		return nil, err
	}
	router.SetEuclidean()
	queries := routing.RandomQueries(sp.N(), 256, 7)
	srch := graph.NewSearcher(sp.N())
	for _, q := range queries {
		rt, err := router.RouteWith(srch, routing.SchemeShortestPath, q.S, q.T)
		if err != nil {
			return nil, err
		}
		if !rt.Delivered {
			return nil, fmt.Errorf("undelivered %d->%d", q.S, q.T)
		}
	}
	return counts{"settled/query": float64(srch.Stats().Settled) / float64(len(queries))}, nil
}

// commitWork boots a labels-off Service over points and returns the work
// of one Mutate holding a single move of vertex 0: the writer's repair,
// the frozen export and the fresh snapshot with its route cache.
func commitWork(points []geom.Point) (counts, error) {
	svc, err := service.New(points, service.Options{})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	var batches [2][]service.Op
	for i := range batches {
		to := slices.Clone(points[0])
		to[0] += 0.01 * float64(i+1)
		batches[i] = []service.Op{{Kind: service.OpMove, ID: 0, Point: to}}
	}
	commits := 0
	return workOf(func() error {
		res, err := svc.Mutate(batches[commits%2])
		commits++
		if err == nil && res.Applied != 1 {
			err = fmt.Errorf("move not applied: %+v", res.Results)
		}
		return err
	})()
}

// durableCommitWork boots a labels-off leader through replica.OpenLeader
// on an in-memory filesystem that syncs every frame, and returns the work
// of one Mutate holding four moves: commitWork's, plus the frame the
// leader seals and appends and the state it hands the recorder.
func durableCommitWork(points []geom.Point) (counts, error) {
	svc, ld, err := replica.OpenLeader(replica.LeaderConfig{
		WAL:    wal.Options{Dir: "wal", FS: faultfs.New(), Sync: wal.SyncAlways},
		Points: func() ([]geom.Point, error) { return points, nil },
	})
	if err != nil {
		return nil, err
	}
	defer ld.Close()
	defer svc.Close()
	var batches [2][]service.Op
	for i := range batches {
		for id := 0; id < 4; id++ {
			to := slices.Clone(points[id])
			to[0] += 0.01 * float64(i+1)
			batches[i] = append(batches[i], service.Op{Kind: service.OpMove, ID: id, Point: to})
		}
	}
	commits := 0
	return workOf(func() error {
		res, err := svc.Mutate(batches[commits%2])
		commits++
		if err == nil && res.Applied != len(batches[0]) {
			err = fmt.Errorf("moves not applied: %+v", res.Results)
		}
		if err == nil {
			err = ld.Err()
		}
		return err
	})()
}

// workOf returns a counter that runs f once to warm the searcher pool,
// then again from a collected heap, and reports the second run's
// allocation count and bytes.
func workOf(f func() error) func() (counts, error) {
	return func() (counts, error) {
		if err := f(); err != nil {
			return nil, err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		return counts{
			"allocations": float64(after.Mallocs - before.Mallocs),
			"bytes":       float64(after.TotalAlloc - before.TotalAlloc),
		}, err
	}
}
