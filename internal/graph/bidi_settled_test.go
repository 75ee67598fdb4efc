package graph_test

// Work-reduction and allocation pins for the point-to-point search core:
// the settled-vertex counter (Searcher.Stats) asserts each kernel's ≥2x
// exploration saving over the one it replaces by count, independent of
// benchmark noise, and the steady-state allocation contract extends to the
// two-frontier and goal-directed kernels and the append-style path
// reconstruction.

import (
	"math"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/ubg"
)

// densityUBG generates a connected expected-degree-8 instance in the given
// dimension — constant realistic density, so point-to-point distances grow
// with n and the searches are non-trivial.
func densityUBG(t *testing.T, n, dim int, seed int64) *ubg.Instance {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: dim, Side: ubg.DensitySide(n, dim, 1, 8), Seed: seed},
		ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestBidiSettlesFewer pins the point of the bidirectional kernel: over a
// fuzzed point-to-point query set — unbounded hits, tightly bounded
// misses, and spanner-style t·w acceptance probes, across the 2-D and 3-D
// deployments the repo serves — it settles at most 60% of the vertices the
// unidirectional reference kernel settles, on both the adjacency-list and
// the frozen CSR representation. The saving is dimension-dependent (two
// half-radius balls: ~πd²/2 vs πd² in the plane, ~d³/4 vs d³ in 3-D,
// degraded near deployment boundaries), which is why the pin is an
// aggregate over both dimensions; the per-dimension ratios are logged.
func TestBidiSettlesFewer(t *testing.T) {
	oracle := graph.NewSearcher(0) // distance lookups only; not compared
	uni := graph.NewSearcher(0)
	bidi := graph.NewSearcher(0)
	bidiF := graph.NewSearcher(0)
	for _, dim := range []int{2, 3} {
		dimMark := uni.Stats().Settled
		dimMarkB := bidi.Stats().Settled
		for _, seed := range []int64{1, 2, 3} {
			inst := densityUBG(t, 512, dim, seed)
			g := inst.G
			f := graph.Freeze(g)
			rng := newQueryRNG(seed)
			for q := 0; q < 200; q++ {
				src, dst := rng.pair(g.N())
				d, conn := oracle.DijkstraTargetUni(g, src, dst, graph.Inf)
				bounds := []float64{graph.Inf}
				if conn {
					// A failing probe half the distance out, and a
					// greedy-style acceptance bound.
					bounds = append(bounds, d/2, 1.5*d)
				}
				// Identical query triples through all three compared kernels.
				for _, b := range bounds {
					uni.DijkstraTargetUni(g, src, dst, b)
					bidi.DijkstraTarget(g, src, dst, b)
					bidiF.DijkstraTarget(f, src, dst, b)
				}
			}
		}
		du := uni.Stats().Settled - dimMark
		db := bidi.Stats().Settled - dimMarkB
		t.Logf("dim=%d: uni settled %d, bidi %d (ratio %.3f)", dim, du, db, float64(db)/float64(du))
	}
	us, bs, fs := uni.Stats(), bidi.Stats(), bidiF.Stats()
	if us.Settled == 0 || bs.Settled == 0 {
		t.Fatalf("degenerate query set: uni settled %d, bidi %d", us.Settled, bs.Settled)
	}
	if us.Searches != bs.Searches || us.Searches != fs.Searches {
		t.Fatalf("query sets diverged: %d/%d/%d searches", us.Searches, bs.Searches, fs.Searches)
	}
	if ratio := float64(bs.Settled) / float64(us.Settled); ratio > 0.6 {
		t.Fatalf("bidirectional settled %d vertices vs unidirectional %d (ratio %.2f, want <= 0.60)",
			bs.Settled, us.Settled, ratio)
	}
	if ratio := float64(fs.Settled) / float64(us.Settled); ratio > 0.6 {
		t.Fatalf("frozen bidirectional settled %d vertices vs unidirectional %d (ratio %.2f, want <= 0.60)",
			fs.Settled, us.Settled, ratio)
	}
	// The generic and CSR loops are the same algorithm over the same
	// adjacency order: their work must match exactly, not just on average.
	if bs.Settled != fs.Settled {
		t.Fatalf("generic loop settled %d, frozen loop %d — loops out of lockstep", bs.Settled, fs.Settled)
	}
}

// TestAStarSettlesFewer pins the point of the goal-directed kernel: on an
// n=4,096 expected-degree-8 plane instance — the density the daemon
// serves — A* with the straight-line potential settles at most half the
// vertices the bidirectional kernel settles over the same uniform pairs,
// both on the 1.5-spanner (/route's path search) and on the base graph
// (its stretch denominator). Measured 0.32 and 0.20 on this query set:
// the potential steers the search along the segment src–dst, and the
// spanner's detours make it a little less sharp there. Every A* answer is
// also checked against the bidirectional kernel's distance.
func TestAStarSettlesFewer(t *testing.T) {
	inst := densityUBG(t, 4096, 2, 11)
	sp := graph.Freeze(greedy.Spanner(inst.G, 1.5))
	base := graph.Freeze(inst.G)
	for _, tc := range []struct {
		name string
		g    *graph.Frozen
	}{{"spanner", sp}, {"base", base}} {
		bidi, astar := graph.NewSearcher(0), graph.NewSearcher(0)
		rng := newQueryRNG(5)
		for q := 0; q < 300; q++ {
			src, dst := rng.pair(tc.g.N())
			want, ok := bidi.DijkstraTarget(tc.g, src, dst, graph.Inf)
			got, aok := astar.AStarTarget(tc.g, inst.Points, src, dst, graph.Inf)
			if ok != aok || (ok && math.Abs(got-want) > 1e-9*want) {
				t.Fatalf("%s %d→%d: A* %v/%v, bidirectional %v/%v", tc.name, src, dst, got, aok, want, ok)
			}
		}
		bs, as := bidi.Stats(), astar.Stats()
		ratio := float64(as.Settled) / float64(bs.Settled)
		t.Logf("%s: bidirectional settled %d, A* %d (ratio %.3f)", tc.name, bs.Settled, as.Settled, ratio)
		if ratio > 0.5 {
			t.Fatalf("%s: A* settled %d vertices vs bidirectional %d (ratio %.2f, want <= 0.50)",
				tc.name, as.Settled, bs.Settled, ratio)
		}
	}
}

// queryRNG is a tiny deterministic generator so the settled-count pin does
// not depend on math/rand stream stability.
type queryRNG struct{ s uint64 }

func newQueryRNG(seed int64) *queryRNG { return &queryRNG{s: uint64(seed)*0x9E3779B9 + 1} }

func (r *queryRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *queryRNG) pair(n int) (int, int) {
	src := int(r.next() % uint64(n))
	dst := int(r.next() % uint64(n))
	for dst == src {
		dst = int(r.next() % uint64(n))
	}
	return src, dst
}

// TestBidiSteadyStateAllocs extends the zero-allocation contract to the
// point-to-point kernels: once the scratch (both label sets, both heaps)
// has warmed, DijkstraTarget, AStarTarget, and AppendPathTo /
// AppendAStarPathTo with a reused buffer allocate nothing, on both
// representations.
func TestBidiSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	inst := randomUBG(t, 80, 31)
	g := inst.G
	f := graph.Freeze(g)
	s := graph.NewSearcher(g.N())
	dst := g.N() - 1
	var buf []int
	for _, tp := range []graph.Topology{g, f} {
		kernels := []struct {
			name string
			run  func()
		}{
			{"DijkstraTarget", func() { s.DijkstraTarget(tp, 0, dst, math.Inf(1)) }},
			{"AppendPathTo", func() { buf, _, _ = s.AppendPathTo(buf[:0], tp, 0, dst, math.Inf(1)) }},
			{"AStarTarget", func() { s.AStarTarget(tp, inst.Points, 0, dst, math.Inf(1)) }},
			{"AppendAStarPathTo", func() { buf, _, _ = s.AppendAStarPathTo(buf[:0], tp, inst.Points, 0, dst, math.Inf(1)) }},
		}
		for i := 0; i < 10; i++ { // warm the scratch and the path buffer
			for _, k := range kernels {
				k.run()
			}
		}
		for _, k := range kernels {
			if allocs := testing.AllocsPerRun(100, k.run); allocs != 0 {
				t.Fatalf("%T: %s allocates %v per op in steady state, want 0", tp, k.name, allocs)
			}
		}
	}
}
