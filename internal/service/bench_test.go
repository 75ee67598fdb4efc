package service

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"topoctl/internal/analyze"
	"topoctl/internal/routing"
)

// BenchmarkServiceRoute measures the in-process serving hot path on an
// n=512 deployment: snapshot load, cache probe, and (on miss) the pooled
// A* searches for the spanner path and its base-graph stretch
// denominator. The zipf variant models a
// skewed production mix (mostly cache hits after warmup); the uniform
// variant spreads queries over all ~260k pairs so nearly every request
// misses the cache and pays for two searches.
func BenchmarkServiceRoute(b *testing.B) {
	svc := testService(b, 512, Options{})
	n := len(svc.Snapshot().Alive)
	var seed atomic.Int64

	bench := func(b *testing.B, draw func(rng *rand.Rand, zipf *rand.Zipf) (int, int)) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(9000 + seed.Add(1)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
			for pb.Next() {
				src, dst := draw(rng, zipf)
				if src == dst {
					dst = (dst + 1) % n
				}
				if _, err := svc.Route(routing.SchemeShortestPath, src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	b.Run("zipf", func(b *testing.B) {
		bench(b, func(rng *rand.Rand, zipf *rand.Zipf) (int, int) {
			return int(zipf.Uint64()), int(zipf.Uint64())
		})
	})
	b.Run("uniform", func(b *testing.B) {
		bench(b, func(rng *rand.Rand, zipf *rand.Zipf) (int, int) {
			return rng.Intn(n), rng.Intn(n)
		})
	})
}

// BenchmarkServiceRouteParallel is the multi-core scaling row of the
// /route hot path: a uniform all-pairs query mix (nearly every request
// misses the cache and pays for real searches) from b.RunParallel
// readers. Run with -cpu=1,2: readers share nothing mutable but the
// striped route cache and the searcher pool, so the second core should
// come close to halving ns/op.
func BenchmarkServiceRouteParallel(b *testing.B) {
	svc := testService(b, 512, Options{})
	n := len(svc.Snapshot().Alive)
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(9500 + seed.Add(1)))
		for pb.Next() {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				dst = (dst + 1) % n
			}
			if _, err := svc.Route(routing.SchemeShortestPath, src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyzeImpact measures the heaviest /analyze query on an n=512
// deployment: a single-vertex fault, which re-verifies the stretch of
// every surviving base edge against the faulted spanner (parallel
// fan-out over the searcher pool) plus two component labellings.
func BenchmarkAnalyzeImpact(b *testing.B) {
	svc := testService(b, 512, Options{})
	snap := svc.Snapshot()
	n := len(snap.Alive)
	rng := rand.New(rand.NewSource(17))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.AnalyzeImpact(analyze.ImpactRequest{Vertices: []int{rng.Intn(n)}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeAround measures the k-hop subgraph extraction on an
// n=512 deployment: a 2-hop BFS ball plus the induced-edge sweep and the
// Cytoscape-shaped assembly.
func BenchmarkAnalyzeAround(b *testing.B) {
	svc := testService(b, 512, Options{})
	snap := svc.Snapshot()
	n := len(snap.Alive)
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(2600 + seed.Add(1)))
		for pb.Next() {
			if _, err := snap.AnalyzeAround(analyze.AroundRequest{Center: rng.Intn(n), Hops: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceMutate measures the write path: one mutation batch of 4
// moves through the writer goroutine, including the delta snapshot export
// and swap on an n=256 deployment.
func BenchmarkServiceMutate(b *testing.B) {
	svc := testService(b, 256, Options{})
	snap := svc.Snapshot()
	lo, hi := snap.bboxLo, snap.bboxHi
	rng := rand.New(rand.NewSource(31))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := make([]Op, 4)
		for j := range ops {
			id := rng.Intn(len(snap.Alive)) // moves never retire ids: all alive
			ops[j] = Op{Kind: OpMove, ID: id, Point: []float64{
				lo[0] + rng.Float64()*(hi[0]-lo[0]),
				lo[1] + rng.Float64()*(hi[1]-lo[1]),
			}}
		}
		if _, err := svc.Mutate(ops); err != nil {
			b.Fatal(err)
		}
	}
}
