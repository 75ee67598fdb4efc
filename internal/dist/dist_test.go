package dist

import (
	"fmt"
	"testing"

	"topoctl/internal/core"
	"topoctl/internal/geom"
	"topoctl/internal/metrics"
	"topoctl/internal/sim"
	"topoctl/internal/ubg"
)

func distInstance(t *testing.T, n int, alpha float64, seed int64) *ubg.Instance {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: alpha, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestDistMatchesCore is the differential test for the distributed
// implementation: on identical inputs, with the deterministic greedy MIS
// backend, the distributed build must produce exactly the spanner the
// sequential build produces — lazy updating means every node works against
// the spanner frozen at the end of the previous phase, so the per-phase
// local computations coincide (Theorem 14's argument), and the greedy MIS
// elects the same centers as sequential peeling. Luby's randomized MIS may
// elect a different (equally valid) cover, so for it the pin is the
// contract instead: a t-spanner of near-identical size, reproduced exactly
// under a fixed seed.
func TestDistMatchesCore(t *testing.T) {
	for _, tc := range []struct {
		n     int
		alpha float64
		eps   float64
		seed  int64
	}{
		{40, 0.75, 0.5, 1},
		{64, 0.75, 0.5, 2},
		{64, 0.9, 0.25, 3},
		{96, 0.75, 0.5, 4},
	} {
		t.Run(fmt.Sprintf("n=%d/alpha=%v/eps=%v", tc.n, tc.alpha, tc.eps), func(t *testing.T) {
			inst := distInstance(t, tc.n, tc.alpha, tc.seed)
			p, err := core.NewParams(tc.eps, tc.alpha, 2)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := core.Build(inst.Points, inst.G, core.Options{Params: p})
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprint(seq.Spanner.Edges())

			// Deterministic backend: edge-for-edge equality.
			res, err := Build(inst.Points, inst.G, Options{Params: p, Seed: 7, UseGreedyMIS: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Spanner.Edges()); got != want {
				t.Fatalf("distributed spanner (greedy MIS) diverged from sequential\n got: %s\nwant: %s", got, want)
			}
			if res.Stats != seq.Stats {
				t.Fatalf("distributed stats (greedy MIS) diverged from sequential\n got: %+v\nwant: %+v", res.Stats, seq.Stats)
			}
			if s := metrics.Stretch(inst.G, res.Spanner); s > p.T+1e-9 {
				t.Fatalf("greedy MIS: stretch %v exceeds t=%v", s, p.T)
			}

			// Randomized backend: contract equivalence + seed determinism.
			luby, err := Build(inst.Points, inst.G, Options{Params: p, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if s := metrics.Stretch(inst.G, luby.Spanner); s > p.T+1e-9 {
				t.Fatalf("luby: stretch %v exceeds t=%v", s, p.T)
			}
			if ratio := float64(luby.Spanner.M()) / float64(seq.Spanner.M()); ratio < 0.8 || ratio > 1.25 {
				t.Fatalf("luby spanner size %d diverges from sequential %d (ratio %.3f)",
					luby.Spanner.M(), seq.Spanner.M(), ratio)
			}
			luby2, err := Build(inst.Points, inst.G, Options{Params: p, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(luby.Spanner.Edges()) != fmt.Sprint(luby2.Spanner.Edges()) {
				t.Fatal("luby backend not deterministic under a fixed seed")
			}
		})
	}
}

// TestBuildCoincidentPoints is core's three-point case with two
// coincident points on both MIS arms: the spanner must be a t-spanner.
func TestBuildCoincidentPoints(t *testing.T) {
	points := []geom.Point{{0, 0}, {0, 0}, {0.5, 0}}
	g, err := ubg.Build(points, ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, greedyMIS := range []bool{false, true} {
		res, err := Build(points, g, Options{Params: p, Seed: 1, UseGreedyMIS: greedyMIS})
		if err != nil {
			t.Fatal(err)
		}
		if s := metrics.Stretch(g, res.Spanner); s > p.T {
			t.Fatalf("greedyMIS=%v: stretch %v exceeds t = %v; spanner edges %v", greedyMIS, s, p.T, res.Spanner.Edges())
		}
	}
}

// TestDistCommunicationDeterministicAndPositive pins the protocol
// accounting: identical options give identical round/message/word totals
// and per-phase breakdowns, and every total is positive (a build that
// charges no communication is a simulation bug).
func TestDistCommunicationDeterministicAndPositive(t *testing.T) {
	inst := distInstance(t, 64, 0.75, 5)
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Params: p, Seed: 11}
	a, err := Build(inst.Points, inst.G, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(inst.Points, inst.G, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Words != b.Words {
		t.Fatalf("same seed, different totals: (%d,%d,%d) vs (%d,%d,%d)",
			a.Rounds, a.Messages, a.Words, b.Rounds, b.Messages, b.Words)
	}
	if fmt.Sprint(a.Phases) != fmt.Sprint(b.Phases) {
		t.Fatalf("same seed, different phase costs:\n%v\nvs\n%v", a.Phases, b.Phases)
	}
	if a.Rounds <= 0 || a.Messages <= 0 || a.Words <= 0 {
		t.Fatalf("non-positive communication totals: rounds=%d messages=%d words=%d",
			a.Rounds, a.Messages, a.Words)
	}
	if len(a.Phases) == 0 {
		t.Fatal("no phase costs recorded")
	}
	for _, pc := range a.Phases {
		if pc.Rounds <= 0 || pc.Edges <= 0 || pc.GatherK <= 0 {
			t.Fatalf("degenerate phase cost: %+v", pc)
		}
	}
	// Per-step totals must sum to the build totals.
	var rounds int
	var msgs int64
	for _, c := range a.PerStep {
		rounds += c.Rounds
		msgs += c.Messages
	}
	if rounds != a.Rounds || msgs != a.Messages {
		t.Fatalf("per-step sums (%d rounds, %d messages) != totals (%d, %d)",
			rounds, msgs, a.Rounds, a.Messages)
	}
	// A different seed may elect different Luby centers but must still
	// match the sequential spanner (see TestDistMatchesCore); its round
	// count can differ, which is exactly why the accounting is explicit.
	c, err := Build(inst.Points, inst.G, Options{Params: p, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds <= 0 {
		t.Fatalf("non-positive rounds under different seed: %d", c.Rounds)
	}
}

// TestDistStatsMatchCoreCounters checks the shared work counters: the
// distributed build reports the same added-edge totals as its spanner, and
// core's driver reports every non-empty bin exactly once — phase 0 when it
// has edges — with the edges it kept net of redundancy removal. The second
// instance packs 48 points into a quarter-side square, so bin 0 is
// populated (the unit square leaves it empty at this n).
func TestDistStatsMatchCoreCounters(t *testing.T) {
	dense, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 48, Dim: 2, Seed: 1, Side: 0.25},
		ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []*ubg.Instance{distInstance(t, 48, 0.75, 6), dense} {
		res, err := Build(inst.Points, inst.G, Options{Params: p, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Spanner.M(), res.Stats.Added-res.Stats.RemovedRedundant; got != want {
			t.Fatalf("spanner has %d edges but stats say %d added - %d removed",
				got, res.Stats.Added, res.Stats.RemovedRedundant)
		}
		if res.Stats.Phases <= 0 || res.Stats.EdgesTotal != inst.G.M() {
			t.Fatalf("stats inconsistent: %+v", res.Stats)
		}
		kept := 0
		for _, pc := range res.Phases {
			kept += pc.Added
		}
		if kept != res.Spanner.M() {
			t.Fatalf("phase costs add %d edges, spanner has %d", kept, res.Spanner.M())
		}
		want := res.Stats.NonEmptyPhases
		if res.Stats.EdgesShort > 0 {
			want++
		}
		if len(res.Phases) != want {
			t.Fatalf("%d phase costs, want %d (NonEmptyPhases %d, EdgesShort %d)",
				len(res.Phases), want, res.Stats.NonEmptyPhases, res.Stats.EdgesShort)
		}
	}
}

// TestBuildInputValidation: the distributed build rejects what core.Run
// rejects — invalid params, an invalid metric, and a point count that does
// not match the graph.
func TestBuildInputValidation(t *testing.T) {
	inst := distInstance(t, 20, 0.75, 14)
	good, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(inst.Points[:10], inst.G, Options{Params: good}); err == nil {
		t.Error("mismatched point count accepted")
	}
	bad := good
	bad.R = 0.5
	if _, err := Build(inst.Points, inst.G, Options{Params: bad}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Build(inst.Points, inst.G, Options{Params: good, Metric: core.Metric{Coeff: -1, Gamma: 1}}); err == nil {
		t.Error("invalid metric accepted")
	}
}

// TestCostModelPinned freezes the communication account on one fixed
// instance — the public-API call topoctl.RandomNetwork{N: 256, Alpha: 0.75,
// Deg: 8, Seed: 7} built with Options{Epsilon: 0.5, Alpha: 0.75, Seed: 3} —
// for both MIS arms, totals and per-step sums. The literals were recorded
// before sim and dist moved from map-returning BFS to Searcher.HopBall; a
// change to how the gather, convergecast or hop-radius primitives walk the
// graph must reproduce them bit for bit, and a deliberate change to the
// cost model must update them here. The luby row's edge count was
// re-pinned (448 → 449) when Luby's draws became counter-based; its
// rounds, messages and words did not move.
func TestCostModelPinned(t *testing.T) {
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 256, Dim: 2, Seed: 7, Side: ubg.DensitySide(256, 2, 0.75, 8)},
		ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		greedyMIS bool
		total     sim.StepCost
		edges     int
		perStep   map[string]sim.StepCost
	}{
		{"luby", false, sim.StepCost{Rounds: 626, Messages: 549147, Words: 4464272}, 449, map[string]sim.StepCost{
			"clustergraph/assemble":   {Rounds: 88, Messages: 1, Words: 3},
			"clustergraph/attach":     {Rounds: 88, Messages: 1, Words: 2},
			"clustergraph/distribute": {Rounds: 88, Messages: 1, Words: 3},
			"mis/centers":             {Rounds: 176, Messages: 4, Words: 4},
			"mis/redundancy":          {Rounds: 10, Messages: 20, Words: 20},
			"phase/gather":            {Rounds: 88, Messages: 274560, Words: 3915120},
			"update/announce":         {Rounds: 88, Messages: 274560, Words: 549120},
		}},
		{"greedy", true, sim.StepCost{Rounds: 533, Messages: 549135, Words: 4464260}, 449, map[string]sim.StepCost{
			"clustergraph/assemble":   {Rounds: 88, Messages: 1, Words: 3},
			"clustergraph/attach":     {Rounds: 88, Messages: 1, Words: 2},
			"clustergraph/distribute": {Rounds: 88, Messages: 1, Words: 3},
			"mis/centers":             {Rounds: 88, Messages: 2, Words: 2},
			"mis/redundancy":          {Rounds: 5, Messages: 10, Words: 10},
			"phase/gather":            {Rounds: 88, Messages: 274560, Words: 3915120},
			"update/announce":         {Rounds: 88, Messages: 274560, Words: 549120},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Build(inst.Points, inst.G, Options{Params: p, Seed: 3, UseGreedyMIS: tc.greedyMIS})
			if err != nil {
				t.Fatal(err)
			}
			if got := (sim.StepCost{Rounds: res.Rounds, Messages: res.Messages, Words: res.Words}); got != tc.total {
				t.Errorf("totals %+v, pinned %+v", got, tc.total)
			}
			if res.Spanner.M() != tc.edges {
				t.Errorf("spanner has %d edges, pinned %d", res.Spanner.M(), tc.edges)
			}
			if len(res.PerStep) != len(tc.perStep) {
				t.Errorf("%d protocol steps charged, pinned %d", len(res.PerStep), len(tc.perStep))
			}
			for step, want := range tc.perStep {
				if got := res.PerStep[step]; got == nil || *got != want {
					t.Errorf("step %q: %+v, pinned %+v", step, got, want)
				}
			}
		})
	}
}
