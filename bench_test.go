package topoctl

// Benchmark harness: one benchmark per experiment table of internal/exp
// (one per theorem or figure of the paper), plus micro-benchmarks for the
// core building blocks. Experiment benchmarks run the exp suite in Quick mode so
// `go test -bench=.` regenerates every table's workload; run
// `go run ./cmd/experiments` for the full-size tables.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"topoctl/internal/baseline"
	"topoctl/internal/core"
	"topoctl/internal/dist"
	"topoctl/internal/dynamic"
	"topoctl/internal/exp"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/labels"
	"topoctl/internal/metrics"
	"topoctl/internal/netio"
	"topoctl/internal/routing"
	"topoctl/internal/ubg"
)

// benchExperiment runs one experiment table per iteration and reports a
// one-line digest so the bench log doubles as a sanity record.
func benchExperiment(b *testing.B, f func(exp.Config) (*exp.Table, error)) {
	b.Helper()
	cfg := exp.Config{Quick: true}
	for i := 0; i < b.N; i++ {
		t, err := f(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s: %d rows", t.ID, len(t.Rows))
		}
	}
}

func BenchmarkExpT1Stretch(b *testing.B)    { benchExperiment(b, exp.T1Stretch) }
func BenchmarkExpT2Degree(b *testing.B)     { benchExperiment(b, exp.T2Degree) }
func BenchmarkExpT3Weight(b *testing.B)     { benchExperiment(b, exp.T3Weight) }
func BenchmarkExpT4Rounds(b *testing.B)     { benchExperiment(b, exp.T4Rounds) }
func BenchmarkExpT5Baselines(b *testing.B)  { benchExperiment(b, exp.T5Baselines) }
func BenchmarkExpT6Alpha(b *testing.B)      { benchExperiment(b, exp.T6Alpha) }
func BenchmarkExpT7Dimension(b *testing.B)  { benchExperiment(b, exp.T7Dimension) }
func BenchmarkExpT8Power(b *testing.B)      { benchExperiment(b, exp.T8Power) }
func BenchmarkExpT9Fault(b *testing.B)      { benchExperiment(b, exp.T9Fault) }
func BenchmarkExpT10Energy(b *testing.B)    { benchExperiment(b, exp.T10Energy) }
func BenchmarkExpT11SeqVsDist(b *testing.B) { benchExperiment(b, exp.T11SeqVsDist) }
func BenchmarkExpT12Ablation(b *testing.B)  { benchExperiment(b, exp.T12Ablation) }
func BenchmarkExpT13Clouds(b *testing.B)    { benchExperiment(b, exp.T13Clouds) }
func BenchmarkExpT14Messages(b *testing.B)  { benchExperiment(b, exp.T14Messages) }

func BenchmarkExpF1CzumajZhao(b *testing.B)   { benchExperiment(b, exp.F1CzumajZhao) }
func BenchmarkExpF2ClusterGraph(b *testing.B) { benchExperiment(b, exp.F2ClusterGraph) }
func BenchmarkExpF4Leapfrog(b *testing.B)     { benchExperiment(b, exp.F4Leapfrog) }
func BenchmarkExpF5Doubling(b *testing.B)     { benchExperiment(b, exp.F5Doubling) }

// --- micro-benchmarks ---

func benchInstance(b *testing.B, n int) *ubg.Instance {
	b.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: 1},
		ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// benchInstanceDensity generates a connected instance at expected degree
// ~deg (unit radius), the density every realistic deployment harness in the
// repo targets. The default unit-box instance of benchInstance is nearly
// complete past n≈512, so the large point-to-point benchmarks use this
// instead: constant density keeps the edge count linear in n and the
// shortest paths long, the regime of the serving path's point-to-point
// searches.
func benchInstanceDensity(b testing.TB, n int, deg float64) *ubg.Instance {
	b.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Side: ubg.DensitySide(n, 2, 1, deg), Seed: 1},
		ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// buildBenchInstance is the instance the builder benchmarks run on: the
// historical dense unit-box series below n=1024, an expected-degree-8
// instance from there on, where the per-phase cover, cluster graph and
// redundancy scan (not the phase-0 clique greedy) dominate a build.
func buildBenchInstance(b *testing.B, n int) *ubg.Instance {
	if n >= 1024 {
		return benchInstanceDensity(b, n, 8)
	}
	return benchInstance(b, n)
}

// BenchmarkCoreBuild measures the sequential relaxed greedy across n;
// n=8192 is the size the benchmark of record's build-8k workload builds.
func BenchmarkCoreBuild(b *testing.B) {
	for _, n := range []int{64, 128, 256, 2048, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := buildBenchInstance(b, n)
			p, err := core.NewParams(0.5, 0.75, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(inst.Points, inst.G, core.Options{Params: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistBuild measures the distributed pipeline (simulation
// included), at build-8k's size too.
func BenchmarkDistBuild(b *testing.B) {
	for _, n := range []int{64, 128, 2048, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := buildBenchInstance(b, n)
			p, err := core.NewParams(0.5, 0.75, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dist.Build(inst.Points, inst.G, dist.Options{Params: p, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeqGreedy measures the exact greedy baseline. n ≤ 512 runs on
// the dense unit-box instance (the historical series); n ≥ 1024 on
// expected-degree-8 instances, where a dense box would be nearly complete
// and the benchmark would measure edge sorting instead of search.
func BenchmarkSeqGreedy(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := benchInstance(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				greedy.Spanner(inst.G, 1.5)
			}
		})
	}
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := benchInstanceDensity(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				greedy.Spanner(inst.G, 1.5)
			}
		})
	}
}

// BenchmarkRouteUncached measures the point-to-point serving primitive with
// the route cache out of the picture: shortest-path routes over a frozen
// spanner between uniform random pairs, on a router declared Euclidean so
// it runs the A* kernel — exactly the path search a topoctld cache miss
// pays. Constant density (expected degree 8) keeps routes long as n grows,
// so this benchmark scales the search work rather than the topology
// construction.
func BenchmarkRouteUncached(b *testing.B) {
	for _, n := range []int{512, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := benchInstanceDensity(b, n, 8)
			sp := graph.Freeze(greedy.Spanner(inst.G, 1.5))
			router, err := routing.NewRouter(sp, inst.Points)
			if err != nil {
				b.Fatal(err)
			}
			router.SetEuclidean()
			queries := routing.RandomQueries(n, 256, 7)
			srch := graph.NewSearcher(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				rt, err := router.RouteWith(srch, routing.SchemeShortestPath, q.S, q.T)
				if err != nil {
					b.Fatal(err)
				}
				if !rt.Delivered {
					b.Fatalf("undelivered %d->%d", q.S, q.T)
				}
			}
		})
	}
}

// labelQueries draws a query workload over n vertices: "uniform" is the
// RandomQueries distribution BenchmarkRouteUncached uses; "zipf" skews
// sources and destinations toward a hot set (PODS-style overlay traffic —
// the distribution the label oracle is supposed to win under, since hot
// pairs hit the same short label runs over and over).
func labelQueries(n int, mix string) []routing.Query {
	if mix == "uniform" {
		return routing.RandomQueries(n, 256, 7)
	}
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
	out := make([]routing.Query, 0, 256)
	for len(out) < 256 {
		s, t := int(z.Uint64()), int(z.Uint64())
		if s != t {
			out = append(out, routing.Query{S: s, T: t})
		}
	}
	return out
}

// BenchmarkRouteLabel measures the point-to-point distance primitive with
// and without the hub-label oracle, at constant density (expected degree
// 8) and under both uniform and zipfian query mixes. The astar arm is the
// search a labels-off daemon runs (a router declared Euclidean, no
// oracle); the bidi arm is the blind bidirectional kernel. The labels arm
// is the acceptance target: ≥5× under the astar arm at n=4096 with 0
// allocs/op. label-B/vtx reports the oracle's storage cost, fallbacks/op
// how many queries the oracle declined (0 for a freshly built oracle).
func BenchmarkRouteLabel(b *testing.B) {
	for _, n := range []int{512, 1024, 4096} {
		inst := benchInstanceDensity(b, n, 8)
		sp := graph.Freeze(greedy.Spanner(inst.G, 1.5))
		oracle := labels.Build(sp, labels.Options{})
		st := oracle.Stats()
		for _, mix := range []string{"uniform", "zipf"} {
			queries := labelQueries(n, mix)
			for _, arm := range []string{"labels", "astar", "bidi"} {
				b.Run(fmt.Sprintf("n=%d/mix=%s/%s", n, mix, arm), func(b *testing.B) {
					router, err := routing.NewRouter(sp, inst.Points)
					if err != nil {
						b.Fatal(err)
					}
					switch arm {
					case "labels":
						router.SetDistanceOracle(oracle)
						b.ReportMetric(st.BytesPerVertex, "label-B/vtx")
					case "astar":
						router.SetEuclidean()
					}
					srch := graph.NewSearcher(n)
					fallbacks := 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						q := queries[i%len(queries)]
						d, fromLabels, err := router.Distance(srch, q.S, q.T)
						if err != nil {
							b.Fatal(err)
						}
						if d >= graph.Inf {
							b.Fatalf("unreachable %d->%d on a connected instance", q.S, q.T)
						}
						if !fromLabels {
							fallbacks++
						}
					}
					if arm == "labels" {
						b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
					}
				})
			}
		}
	}
}

// BenchmarkLabelBuild measures full hub-label construction at the freeze
// boundary — the cost a labels-enabled topoctld pays per oracle rebuild
// (stale horizon), not per mutation.
func BenchmarkLabelBuild(b *testing.B) {
	for _, n := range []int{512, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := benchInstanceDensity(b, n, 8)
			sp := graph.Freeze(greedy.Spanner(inst.G, 1.5))
			b.ResetTimer()
			var st labels.Stats
			for i := 0; i < b.N; i++ {
				st = labels.Build(sp, labels.Options{}).Stats()
			}
			b.ReportMetric(float64(st.Entries)/float64(n), "entries/vtx")
			b.ReportMetric(st.BytesPerVertex, "label-B/vtx")
		})
	}
}

// BenchmarkBaselines measures each classical construction.
func BenchmarkBaselines(b *testing.B) {
	inst := benchInstance(b, 256)
	for _, kind := range baseline.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Build(kind, inst.Points, inst.G, baseline.Options{T: 1.5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStretchVerification measures the exact stretch metric, the
// workhorse of the test suite.
func BenchmarkStretchVerification(b *testing.B) {
	inst := benchInstance(b, 256)
	sp := greedy.Spanner(inst.G, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := metrics.Stretch(inst.G, sp); s > 1.5+1e-9 {
			b.Fatal("stretch violation")
		}
	}
}

// BenchmarkUBGBuild measures grid-accelerated network construction.
func BenchmarkUBGBuild(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Side: 4, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ubg.Build(pts, ubg.Config{Alpha: 0.75, Model: ubg.ModelAll}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouting measures the routing schemes over a spanner.
func BenchmarkRouting(b *testing.B) {
	inst := benchInstance(b, 256)
	sp := greedy.Spanner(inst.G, 1.5)
	router, err := routing.NewRouter(sp, inst.Points)
	if err != nil {
		b.Fatal(err)
	}
	queries := routing.RandomQueries(inst.G.N(), 50, 1)
	for _, scheme := range []routing.Scheme{routing.SchemeShortestPath, routing.SchemeGreedy, routing.SchemeCompass} {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := router.Evaluate(scheme, queries, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChurn compares incremental spanner maintenance (internal/dynamic)
// against rebuild-from-scratch for single-operation updates: each iteration
// moves one node a small step, then either repairs locally or rebuilds the
// α-UBG and greedy spanner on the updated point set.
func BenchmarkChurn(b *testing.B) {
	const t = 1.5
	for _, n := range []int{128, 256, 512, 1024, 4096} {
		// Expected degree ~8 at unit radius — the density every other
		// harness in the repo targets. At realistic densities the t·R
		// repair ball is a vanishing fraction of the deployment, which is
		// exactly the locality the incremental engine exploits.
		side := ubg.DensitySide(n, 2, 1, 8)
		pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Side: side, Seed: 1})

		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			eng, err := dynamic.New(pts, dynamic.Options{T: t})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			ids := eng.IDs(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[rng.Intn(len(ids))]
				p := eng.Point(id).Clone()
				p[0] += rng.NormFloat64() * 0.1
				p[1] += rng.NormFloat64() * 0.1
				if err := eng.Move(id, p); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			cur := make([]geom.Point, len(pts))
			for i, p := range pts {
				cur[i] = p.Clone()
			}
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := rng.Intn(len(cur))
				cur[id][0] += rng.NormFloat64() * 0.1
				cur[id][1] += rng.NormFloat64() * 0.1
				g, err := ubg.Build(cur, ubg.Config{Alpha: 1, Model: ubg.ModelAll})
				if err != nil {
					b.Fatal(err)
				}
				greedy.Spanner(g, t)
			}
		})
	}
}

// BenchmarkChurnExport measures the commit+export cycle the serving layer
// runs per mutation batch on n=512: one committed Move followed by a
// snapshot publish that hands only the adjacency rows the repair touched
// to graph.ApplyRows and shares everything else with the previous
// snapshot, so the per-commit allocation count stays constant in n.
func BenchmarkChurnExport(b *testing.B) {
	const n, t = 512, 1.5
	side := ubg.DensitySide(n, 2, 1, 8)
	pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Side: side, Seed: 1})

	b.Run("frozen", func(b *testing.B) {
		eng, err := dynamic.New(pts, dynamic.Options{T: t})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		ids := eng.IDs(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := ids[rng.Intn(len(ids))]
			p := eng.Point(id).Clone()
			p[0] += rng.NormFloat64() * 0.1
			p[1] += rng.NormFloat64() * 0.1
			if err := eng.Move(id, p); err != nil {
				b.Fatal(err)
			}
			if _, _, base, sp := eng.ExportFrozen(); base.N()+sp.M() == 0 {
				b.Fatal("empty export")
			}
		}
	})
}

// BenchmarkNetIORoundTrip measures instance serialization.
func BenchmarkNetIORoundTrip(b *testing.B) {
	inst := benchInstance(b, 512)
	in := &netio.Instance{Points: inst.Points, G: inst.G, Alpha: 0.75}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := netio.Write(&buf, in); err != nil {
			b.Fatal(err)
		}
		if _, err := netio.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultTolerantBuild measures the k-fault-tolerant relaxed build.
func BenchmarkFaultTolerantBuild(b *testing.B) {
	inst := benchInstance(b, 96)
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(inst.Points, inst.G, core.Options{Params: p, FaultK: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildLarge measures the million-vertex build path: the parallel
// slab-backed frozen-CSR α-UBG construction at constant density (expected
// base degree ~8). It reports bytes per vertex of the finished snapshot —
// the figure that decides whether n=10^6 fits commodity memory — alongside
// allocs/op, which must stay sublinear in the edge count (the point of the
// two-pass pre-sized build). The engine arm adds the dynamic bulk load on
// top: frozen build + thaw + SEQ-GREEDY spanner.
func BenchmarkBuildLarge(b *testing.B) {
	// The million-vertex arm is opt-in (BUILD_LARGE=1, same gate as the
	// build-large smoke test) so routine bench runs stay fast; run it with
	// -benchtime=1x unless you want several multi-second samples.
	sizes := []int{65536, 262144}
	if os.Getenv("BUILD_LARGE") != "" {
		sizes = append(sizes, 1<<20)
	}
	for _, n := range sizes {
		pts := geom.GeneratePoints(geom.CloudConfig{
			Kind: geom.CloudUniform, N: n, Dim: 2, Side: ubg.DensitySide(n, 2, 1, 8), Seed: 1,
		})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var f *graph.Frozen
			for i := 0; i < b.N; i++ {
				var err error
				f, err = ubg.BuildFrozen(pts, ubg.Config{Alpha: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			// CSR footprint: 16 bytes per halfedge (two per edge) plus an
			// 8-byte row span per vertex.
			bytes := 16*2*int64(f.M()) + 8*int64(f.N())
			b.ReportMetric(float64(bytes)/float64(n), "B/vtx")
			b.ReportMetric(float64(f.M())/float64(n), "edges/vtx")
		})
	}
	b.Run("engine/n=65536", func(b *testing.B) {
		n := 65536
		pts := geom.GeneratePoints(geom.CloudConfig{
			Kind: geom.CloudUniform, N: n, Dim: 2, Side: ubg.DensitySide(n, 2, 1, 8), Seed: 1,
		})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, err := dynamic.New(pts, dynamic.Options{T: 1.5})
			if err != nil {
				b.Fatal(err)
			}
			if eng.Base().M() == 0 {
				b.Fatal("empty base graph")
			}
		}
	})
}
