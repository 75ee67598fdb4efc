package dynamic

import (
	"math"
	"math/rand"
	"testing"

	"topoctl/internal/geom"
)

func testPoints(n int, side float64, seed int64) []geom.Point {
	return geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Side: side, Seed: seed})
}

// checkInvariants verifies the two structural invariants the engine
// maintains: the spanner is a subgraph of the current base graph (with the
// same weights), and every base edge is t-spanned.
func checkInvariants(t *testing.T, e *Engine) {
	t.Helper()
	for _, ed := range e.Spanner().EdgesUnordered() {
		w, ok := e.Base().EdgeWeight(ed.U, ed.V)
		if !ok {
			t.Fatalf("spanner edge {%d,%d} not in base graph", ed.U, ed.V)
		}
		if math.Abs(ed.W-w) > 1e-12 {
			t.Fatalf("spanner edge {%d,%d} weight %v, want base weight %v", ed.U, ed.V, ed.W, w)
		}
	}
	if s := stretchOf(e); s > e.Options().T+1e-9 {
		t.Fatalf("stretch %v exceeds bound %v", s, e.Options().T)
	}
}

func TestNewSeedsGreedySpanner(t *testing.T) {
	pts := testPoints(80, 3, 1)
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != 80 {
		t.Fatalf("N = %d, want 80", e.N())
	}
	if e.Base().M() == 0 {
		t.Fatal("base graph has no edges")
	}
	if e.Spanner().M() == 0 || e.Spanner().M() > e.Base().M() {
		t.Fatalf("spanner edges %d outside (0, %d]", e.Spanner().M(), e.Base().M())
	}
	checkInvariants(t, e)
}

func TestJoinLeaveMoveMaintainStretch(t *testing.T) {
	pts := testPoints(60, 3, 2)
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))

	// Joins.
	for i := 0; i < 15; i++ {
		id, err := e.Join(geom.Point{rng.Float64() * 3, rng.Float64() * 3})
		if err != nil {
			t.Fatal(err)
		}
		if !e.Alive(id) {
			t.Fatalf("joined node %d not alive", id)
		}
	}
	checkInvariants(t, e)

	// Leaves.
	for i := 0; i < 20; i++ {
		ids := e.IDs(nil)
		if err := e.Leave(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, e)

	// Moves.
	for i := 0; i < 25; i++ {
		ids := e.IDs(nil)
		id := ids[rng.Intn(len(ids))]
		p := e.Point(id).Clone()
		p[0] += rng.NormFloat64() * 0.4
		p[1] += rng.NormFloat64() * 0.4
		if err := e.Move(id, p); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, e)

	if st := e.Stats(); st.Joins != 15 || st.Leaves != 20 || st.Moves != 25 {
		t.Fatalf("stats %+v, want 15/20/25 ops", st)
	}
}

func TestLeaveRemovesIncidentEdges(t *testing.T) {
	pts := testPoints(40, 2.5, 4)
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(7); err != nil {
		t.Fatal(err)
	}
	if e.Alive(7) {
		t.Fatal("left node still alive")
	}
	if d := e.Base().Degree(7); d != 0 {
		t.Fatalf("left node keeps %d base edges", d)
	}
	if d := e.Spanner().Degree(7); d != 0 {
		t.Fatalf("left node keeps %d spanner edges", d)
	}
	if err := e.Leave(7); err == nil {
		t.Fatal("double leave succeeded")
	}
	if err := e.Move(7, geom.Point{0, 0}); err == nil {
		t.Fatal("move of dead node succeeded")
	}
	checkInvariants(t, e)
}

func TestSlotReuseAndGrowth(t *testing.T) {
	pts := testPoints(10, 1.5, 5)
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(3); err != nil {
		t.Fatal(err)
	}
	id, err := e.Join(geom.Point{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("freed slot not reused: got id %d, want 3", id)
	}
	// Force capacity growth: join far past the initial capacity.
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		if _, err := e.Join(geom.Point{rng.Float64() * 1.5, rng.Float64() * 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	if e.N() != 50 {
		t.Fatalf("N = %d, want 50", e.N())
	}
	if e.Base().N() < 50 || e.Spanner().N() != e.Base().N() {
		t.Fatalf("graphs out of sync: base n=%d spanner n=%d", e.Base().N(), e.Spanner().N())
	}
	checkInvariants(t, e)
}

func TestBatchCoalescesRepairs(t *testing.T) {
	pts := testPoints(60, 3, 7)
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	e.Begin()
	for i := 0; i < 10; i++ {
		ids := e.IDs(nil)
		id := ids[rng.Intn(len(ids))]
		switch i % 3 {
		case 0:
			if _, err := e.Join(geom.Point{rng.Float64() * 3, rng.Float64() * 3}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := e.Leave(id); err != nil {
				t.Fatal(err)
			}
		default:
			p := e.Point(id).Clone()
			p[0] += rng.NormFloat64() * 0.3
			p[1] += rng.NormFloat64() * 0.3
			if err := e.Move(id, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := e.Stats().Repairs; got != 0 {
		t.Fatalf("repairs ran inside open batch: %d", got)
	}
	e.Commit()
	if got := e.Stats().Repairs; got != 1 {
		t.Fatalf("batch committed %d repairs, want 1", got)
	}
	checkInvariants(t, e)
	// Commit outside a batch is a no-op.
	e.Commit()
	if got := e.Stats().Repairs; got != 1 {
		t.Fatalf("stray Commit ran a repair (%d)", got)
	}
}

func TestEmptyEngineNeedsDim(t *testing.T) {
	if _, err := New(nil, Options{T: 1.5}); err == nil {
		t.Fatal("empty engine without Dim succeeded")
	}
	e, err := New(nil, Options{T: 1.5, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Join(geom.Point{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Join(geom.Point{0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Base().HasEdge(a, b) || !e.Spanner().HasEdge(a, b) {
		t.Fatal("pair within radius not linked")
	}
	if _, err := e.Join(geom.Point{0, 0, 0}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	cfg := ScenarioConfig{
		N: 50, Ops: 60, Seed: 11,
		ArrivalRate: 1, DepartureRate: 1, MobilityRate: 2,
		CheckEvery: 20,
	}
	a, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Joins != b.Joins || a.Leaves != b.Leaves || a.Moves != b.Moves ||
		a.FinalNodes != b.FinalNodes || a.BaseEdges != b.BaseEdges || a.SpannerEdges != b.SpannerEdges ||
		a.WorstStretch != b.WorstStretch {
		t.Fatalf("same seed, different runs:\n%v\n%v", a, b)
	}
	if a.Violations != 0 {
		t.Fatalf("scenario violated the stretch bound %d times (worst %v)", a.Violations, a.WorstStretch)
	}
	if a.Checks == 0 || a.Joins+a.Leaves+a.Moves != cfg.Ops {
		t.Fatalf("scenario accounting off: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty render")
	}
}

func TestRunScenarioBatched(t *testing.T) {
	cfg := ScenarioConfig{
		N: 50, Ops: 60, Seed: 12, Batch: 8,
		ArrivalRate: 1, DepartureRate: 1, MobilityRate: 2,
		CheckEvery: 16,
	}
	r, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Violations != 0 {
		t.Fatalf("batched scenario violated the stretch bound %d times (worst %v)", r.Violations, r.WorstStretch)
	}
	ops := r.Joins + r.Leaves + r.Moves
	if r.Stats.Repairs >= ops {
		t.Fatalf("batching did not coalesce: %d repairs for %d ops", r.Stats.Repairs, ops)
	}
	// Batch-sized commit jumps rarely land exactly on a CheckEvery
	// multiple; the cadence must still fire on every crossing (here at
	// committed ops 16, 32, 48 plus the forced final check).
	if r.Checks < 4 {
		t.Fatalf("batched cadence skipped periodic checks: %d checks", r.Checks)
	}
}

// TestDirtyBallIsLocal pins the locality claim: a single move in a large
// network must not sweep the whole vertex set into the dirty ball.
func TestDirtyBallIsLocal(t *testing.T) {
	pts := testPoints(400, 8, 13)
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().DirtyVisited
	ids := e.IDs(nil)
	p := e.Point(ids[0]).Clone()
	p[0] += 0.2
	if err := e.Move(ids[0], p); err != nil {
		t.Fatal(err)
	}
	swept := e.Stats().DirtyVisited - before
	if swept >= e.N()/2 {
		t.Fatalf("dirty ball swept %d of %d vertices — repair is not localized", swept, e.N())
	}
	checkInvariants(t, e)
}
