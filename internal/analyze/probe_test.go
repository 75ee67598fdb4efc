package analyze

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// probeInstance builds a fuzzed α-UBG plus its greedy spanner as a View.
func probeInstance(t testing.TB, n int, seed int64) View {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return View{Points: inst.Points, Base: inst.G, Spanner: greedy.Spanner(inst.G, 1.5), T: 1.5}
}

// TestProbeStretchDifferential pins the probe against exact metrics.Stretch
// on fuzzed instances: a full-budget probe is the stretch, and a partial
// one is a lower bound carrying the coupon bound ln(1/δ)/k.
func TestProbeStretchDifferential(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{
		{64, 1}, {128, 2}, {256, 3}, {512, 4}, {1024, 5},
	} {
		v := probeInstance(t, tc.n, tc.seed)
		exact := metrics.Stretch(v.Base, v.Spanner)
		m := v.Base.M()

		for _, k := range []int{m, m + 100} {
			p := ProbeStretch(v, k, tc.seed, Options{})
			worst, disconnected := p.Worst()
			if !p.Exact || p.Truncated || len(p.Checked) != m || disconnected != 0 || p.ViolationBound() != 0 {
				t.Fatalf("n=%d k=%d: full budget not exact: exact=%v checked=%d/%d disconnected=%d bound=%v",
					tc.n, k, p.Exact, len(p.Checked), m, disconnected, p.ViolationBound())
			}
			if math.Abs(worst-exact) > 1e-12 {
				t.Fatalf("n=%d k=%d: full-budget worst %v, exact stretch %v", tc.n, k, worst, exact)
			}
		}

		for _, k := range []int{1, 8, m / 4, m / 2, m - 1} {
			p := ProbeStretch(v, k, tc.seed, Options{})
			if p.Exact || len(p.Checked) != k {
				t.Fatalf("n=%d k=%d < m=%d: exact=%v checked=%d", tc.n, k, m, p.Exact, len(p.Checked))
			}
			if worst, _ := p.Worst(); worst < 1 || worst > exact+1e-12 {
				t.Fatalf("n=%d k=%d: worst %v outside [1, %v]", tc.n, k, worst, exact)
			}
			if want := math.Log(100) / float64(k); math.Abs(p.ViolationBound()-want) > 1e-12 {
				t.Fatalf("n=%d k=%d: violation bound %v, want %v", tc.n, k, p.ViolationBound(), want)
			}
		}
	}
}

// TestProbeStretchDeterministic requires the same probe for a fixed seed
// under any worker count, on repeat calls, and on a Graph and its Freeze.
func TestProbeStretchDeterministic(t *testing.T) {
	v := probeInstance(t, 512, 9)
	k := v.Base.M() / 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runtime.GOMAXPROCS(1)
	ref := ProbeStretch(v, k, 1234, Options{})
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := ProbeStretch(v, k, 1234, Options{}); !reflect.DeepEqual(got, ref) {
			t.Fatalf("GOMAXPROCS=%d: probe differs from GOMAXPROCS=1", procs)
		}
	}
	frozen := View{Points: v.Points, Base: graph.Freeze(v.Base.(*graph.Graph)), Spanner: graph.Freeze(v.Spanner.(*graph.Graph)), T: v.T}
	if got := ProbeStretch(frozen, k, 1234, Options{}); !reflect.DeepEqual(got, ref) {
		t.Fatal("frozen representation probed differently")
	}
}

// TestSampleEdgesUniform sanity-checks the partial Fisher–Yates draw: k
// distinct real edges of g per seed, different seeds drawing different
// edges, and every edge reachable across seeds.
func TestSampleEdgesUniform(t *testing.T) {
	base := probeInstance(t, 128, 7).Base
	m := base.M()
	k := m / 2
	hit := make(map[[2]int]bool)
	var first []graph.Edge
	for seed := int64(0); seed < 64; seed++ {
		es, exact := sampleEdges(base, k, seed)
		if exact || len(es) != k {
			t.Fatalf("seed %d: drew %d edges (exact=%v), want %d", seed, len(es), exact, k)
		}
		if seed == 0 {
			first = es
		} else if seed == 1 && reflect.DeepEqual(es, first) {
			t.Fatal("seeds 0 and 1 drew identical samples")
		}
		seen := make(map[[2]int]bool, k)
		for _, e := range es {
			key := [2]int{e.U, e.V}
			if seen[key] {
				t.Fatalf("seed %d: duplicate edge %v", seed, key)
			}
			seen[key] = true
			if w, ok := base.EdgeWeight(e.U, e.V); !ok || w != e.W || e.U >= e.V {
				t.Fatalf("seed %d: sampled non-edge %+v", seed, e)
			}
			hit[key] = true
		}
	}
	if len(hit) != m {
		t.Fatalf("64 half-budget draws covered %d/%d edges; sampler looks biased", len(hit), m)
	}
}

// TestProbeStretchDisconnected severs a bridge from the spanner: the probe
// and the divergence report both count the edge as disconnected.
func TestProbeStretchDisconnected(t *testing.T) {
	base := graph.New(4)
	base.AddEdge(0, 1, 1)
	base.AddEdge(1, 2, 1)
	base.AddEdge(2, 3, 1)
	sp := graph.New(4)
	sp.AddEdge(0, 1, 1)
	sp.AddEdge(2, 3, 1) // 1-2 severed
	v := View{Base: base, Spanner: sp, T: 1.5}

	p := ProbeStretch(v, DefaultSample, 1, Options{})
	if worst, disconnected := p.Worst(); !p.Exact || disconnected != 1 || worst != 1 {
		t.Fatalf("probe: exact=%v worst=%v disconnected=%d, want exact, 1, 1", p.Exact, worst, disconnected)
	}
	rep, err := Divergence(v, DivergenceRequest{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DisconnectedPairs != 1 || len(rep.Witnesses) == 0 || rep.Witnesses[0].Reachable {
		t.Fatalf("divergence: %+v", rep)
	}
}

// TestViolationBoundTruncated: a probe the time cap cut short checked a
// low-rank prefix of each worker's stripe, not a uniform draw, so the
// coupon bound does not apply and the bound is vacuous.
func TestViolationBoundTruncated(t *testing.T) {
	p := StretchProbe{Checked: make([]StretchWitness, 10), Truncated: true}
	if got := p.ViolationBound(); got != 1 {
		t.Fatalf("truncated probe of 10 edges: bound %v, want 1", got)
	}
	p.Truncated = false
	if got, want := p.ViolationBound(), math.Log(100)/10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("uniform probe of 10 edges: bound %v, want %v", got, want)
	}
}
