package replica_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/metrics"
	"topoctl/internal/replica"
	"topoctl/internal/routing"
	"topoctl/internal/service"
	"topoctl/internal/ubg"
	"topoctl/internal/wal"
	"topoctl/internal/wal/faultfs"
)

const (
	testT      = 1.6
	testRadius = 1.0
)

// topoStats is the topology half of /stats: the numbers every node
// serving the same epoch must report bit for bit, however it got there.
type topoStats struct {
	BaseEdges, SpannerEdges, MaxDegree int
	SpannerWeight                      float64
}

// epochRecord is what one node served at one epoch: its canonical state
// body and the topology stats of its published snapshot.
type epochRecord struct {
	body  []byte
	stats topoStats
}

// bodyLog records, per epoch, the canonical state body and the serving
// stats on one side of the replication link, plus the replica client's
// log lines on a follower.
type bodyLog struct {
	mu     sync.Mutex
	epochs map[uint64]epochRecord
	lines  []string
}

func newBodyLog() *bodyLog { return &bodyLog{epochs: map[uint64]epochRecord{}} }

// add records the state body at epoch and the stats svc serves for it.
func (b *bodyLog) add(epoch uint64, body []byte, svc *service.Service) {
	st := svc.Stats()
	rec := epochRecord{body: body, stats: topoStats{
		BaseEdges: st.BaseEdges, SpannerEdges: st.SpannerEdges,
		MaxDegree: st.MaxDegree, SpannerWeight: st.SpannerWeight,
	}}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.epochs[epoch] = rec
}

func (b *bodyLog) get(epoch uint64) epochRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epochs[epoch]
}

func (b *bodyLog) logf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// logged reports whether any recorded log line contains sub.
func (b *bodyLog) logged(sub string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// requireSameEpoch fails unless both logs hold epoch e with byte-identical
// state bodies and bit-identical topology stats.
func requireSameEpoch(t *testing.T, what string, e uint64, want, got *bodyLog) {
	t.Helper()
	w, g := want.get(e), got.get(e)
	if w.body == nil || g.body == nil {
		t.Fatalf("%s: epoch %d missing (want %d bytes, got %d)", what, e, len(w.body), len(g.body))
	}
	if !bytes.Equal(g.body, w.body) {
		t.Fatalf("%s: epoch %d state body differs", what, e)
	}
	if g.stats != w.stats {
		t.Fatalf("%s: epoch %d stats %+v, want %+v", what, e, g.stats, w.stats)
	}
}

func testPoints(n int) []geom.Point {
	side := ubg.DensitySide(n, 2, 1, 8)
	return geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: n, Dim: 2, Side: side, Seed: 991,
	})
}

// leaderHarness is a leader service with an attached WAL recorder and
// replication endpoints, plus a per-epoch body log.
type leaderHarness struct {
	svc    *service.Service
	ld     *replica.Leader
	rec    *wal.Recorder
	bodies *bodyLog
	mux    *http.ServeMux
}

// startLeader boots (or recovers) a leader over fs. pts seeds a fresh
// deployment; on recovery the WAL state wins and pts is ignored.
func startLeader(t *testing.T, fs wal.FS, pts []geom.Point, walOpts wal.Options) *leaderHarness {
	t.Helper()
	if walOpts.Dir == "" {
		walOpts.Dir = "wal"
	}
	walOpts.FS = fs
	rec, recovered, err := wal.Open(walOpts)
	if err != nil {
		t.Fatal(err)
	}
	ld := replica.NewLeader(rec, recovered)
	bodies := newBodyLog()
	var svc *service.Service
	opts := service.Options{
		T: testT, Radius: testRadius,
		OnPublish: func(snap *service.Snapshot, applied []service.Op, touched []int) {
			ld.OnPublish(snap, applied, touched)
			if st := ld.State(); st != nil {
				bodies.add(st.Epoch, st.Encode(), svc)
			}
		},
	}
	if recovered != nil {
		side := recovered.Clone()
		eng, err := dynamic.Restore(side.Points, side.Alive, side.Base.Thaw(), side.Spanner.Thaw(),
			dynamic.Options{T: recovered.T, Radius: recovered.Radius, Dim: recovered.Dim})
		if err != nil {
			t.Fatal(err)
		}
		opts.InitialVersion = recovered.Epoch
		svc = service.NewFromEngine(eng, opts)
		bodies.add(recovered.Epoch, recovered.Encode(), svc)
	} else {
		svc, err = service.New(pts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ld.Genesis(testT, testRadius, 2, svc.Snapshot()); err != nil {
			t.Fatal(err)
		}
		bodies.add(svc.Snapshot().Version, ld.State().Encode(), svc)
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.HandleFunc("GET /wal/checkpoint", rec.HandleCheckpoint)
	mux.HandleFunc("GET /wal/stream", rec.HandleStream)
	return &leaderHarness{svc: svc, ld: ld, rec: rec, bodies: bodies, mux: mux}
}

// churn applies n random single-op mutation batches.
func churn(t *testing.T, svc *service.Service, rng *rand.Rand, n int) {
	t.Helper()
	slots := len(svc.Snapshot().Alive)
	for i := 0; i < n; i++ {
		if _, err := svc.Mutate([]service.Op{randomOp(rng, slots)}); err != nil {
			t.Fatal(err)
		}
	}
}

// randomOp draws a join, leave or move over slots [0, slots); leaves and
// moves of dead slots fail inside the batch, as they would for a client.
func randomOp(rng *rand.Rand, slots int) service.Op {
	side := ubg.DensitySide(48, 2, 1, 8)
	switch rng.Intn(4) {
	case 0:
		return service.Op{Kind: service.OpJoin, Point: geom.Point{rng.Float64() * side, rng.Float64() * side}}
	case 1:
		return service.Op{Kind: service.OpLeave, ID: rng.Intn(slots)}
	default:
		return service.Op{Kind: service.OpMove, ID: rng.Intn(slots),
			Point: geom.Point{rng.Float64() * side, rng.Float64() * side}}
	}
}

// startFollower spins up a follower service replicating from leaderURL.
// The returned stop function is idempotent; call it (or let t.Cleanup)
// before closing the leader's test server, or Close blocks on the open
// stream connection.
func startFollower(t *testing.T, leaderURL string, bodies *bodyLog) (*service.Service, func()) {
	t.Helper()
	fol := service.NewFollower(service.Options{})
	opts := replica.Options{
		Leader:  leaderURL,
		Service: fol,
		Logf: func(format string, args ...any) {
			if bodies != nil {
				bodies.logf(format, args...)
			}
		},
	}
	opts.SetTestHooks(2*time.Millisecond, 20*time.Millisecond, func(st *wal.State) {
		if bodies != nil {
			bodies.add(st.Epoch, st.Encode(), fol)
		}
	})
	cl, err := replica.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); cl.Run(ctx) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			<-done
			fol.Close()
		})
	}
	t.Cleanup(stop)
	return fol, stop
}

// waitConnected blocks until the follower has a live frame stream, so a
// subsequent churn is replicated frame by frame rather than absorbed
// into the bootstrap checkpoint.
func waitConnected(t *testing.T, fol *service.Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := fol.Stats(); st.Replica != nil && st.Replica.Connected {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("follower never connected")
}

// waitForEpoch blocks until the follower logging into fol has recorded
// epoch. The record lands just after the follower publishes the epoch, so
// waiting on the follower's snapshot version alone would race it; every
// earlier epoch the follower applied is recorded by then too.
func waitForEpoch(t *testing.T, fol *bodyLog, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fol.get(epoch).body != nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never reached epoch %d", epoch)
}

// TestFollowerByteIdentical is the differential proof: under churn, the
// follower's canonical state body matches the leader's shadow state
// byte for byte at every single epoch it applies, and the follower's
// /stats topology numbers (spanner weight, max degree, edge counts) match
// what the leader served at that epoch bit for bit.
func TestFollowerByteIdentical(t *testing.T) {
	// The 128-frame ring (4×CheckpointEvery) covers the whole test so the
	// follower never falls out of the window: every epoch after its
	// bootstrap point must be applied and compared, whether it arrives as
	// backlog or on the live tail.
	h := startLeader(t, faultfs.New(), testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 32})
	ts := httptest.NewServer(h.mux)
	defer ts.Close()
	defer h.ld.Close() // ends open stream handlers so ts.Close can finish
	defer h.svc.Close()

	rng := rand.New(rand.NewSource(7))
	churn(t, h.svc, rng, 20) // some history before the follower appears
	preChurn := h.ld.State().Epoch

	folBodies := newBodyLog()
	fol, stopFol := startFollower(t, ts.URL, folBodies)
	defer stopFol()
	waitConnected(t, fol)
	churn(t, h.svc, rng, 40) // live churn while the follower streams

	last := h.ld.State().Epoch
	waitForEpoch(t, folBodies, last)
	if err := h.ld.Err(); err != nil {
		t.Fatal(err)
	}

	compared := 0
	for e := uint64(1); e <= last; e++ {
		if folBodies.get(e).body == nil {
			continue // before the follower's bootstrap point
		}
		requireSameEpoch(t, "follower vs leader", e, h.bodies, folBodies)
		compared++
	}
	// Not every churn op commits a new epoch (a leave of a dead slot is a
	// no-op), so the bar is the live-churn window actually published.
	if want := int(last - preChurn); compared < want || want == 0 {
		t.Fatalf("compared %d epochs, want at least the %d live-churn epochs", compared, want)
	}

	// The follower must now answer routes on the identical topology.
	snap := fol.Snapshot()
	if snap.Version != last {
		t.Fatalf("follower serves version %d, want %d", snap.Version, last)
	}
	res, err := fol.Route(routing.SchemeShortestPath, 0, 1)
	if err == nil && res.Route.Delivered {
		lres, lerr := h.svc.Route(routing.SchemeShortestPath, 0, 1)
		if lerr != nil || lres.Route.Cost != res.Route.Cost {
			t.Fatalf("follower route cost %v != leader %v (err %v)", res.Route.Cost, lres.Route.Cost, lerr)
		}
	}

	// Replica status reports a caught-up, connected link.
	st := fol.Stats()
	if st.Replica == nil || !st.Replica.Connected || st.Replica.Lag != 0 {
		t.Fatalf("replica status = %+v, want connected with zero lag", st.Replica)
	}
}

// cutWriter aborts the connection after a byte budget — a mid-frame
// network cut from the follower's point of view.
type cutWriter struct {
	http.ResponseWriter
	budget int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.budget <= 0 {
		panic(http.ErrAbortHandler)
	}
	if len(p) > c.budget {
		c.ResponseWriter.Write(p[:c.budget])
		c.budget = 0
		if f, ok := c.ResponseWriter.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	c.budget -= len(p)
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestStreamCutsMidFrame serves the first several stream connections
// through a writer that dies partway into a record. The follower must
// reconnect, resume from its applied prefix, and still converge to
// byte-identical state.
func TestStreamCutsMidFrame(t *testing.T) {
	h := startLeader(t, faultfs.New(), testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 16})

	var mu sync.Mutex
	conns := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /wal/checkpoint", h.rec.HandleCheckpoint)
	mux.HandleFunc("GET /wal/stream", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := conns
		conns++
		mu.Unlock()
		if n < 6 {
			// Budgets stagger across record boundaries: headers, bodies,
			// and boundaries all get hit.
			h.rec.HandleStream(&cutWriter{ResponseWriter: w, budget: 90 + 131*n}, r)
			return
		}
		h.rec.HandleStream(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer h.ld.Close()
	defer h.svc.Close()

	rng := rand.New(rand.NewSource(11))
	folBodies := newBodyLog()
	fol, stopFol := startFollower(t, ts.URL, folBodies)
	defer stopFol()
	waitConnected(t, fol)
	// Pace the churn so frames arrive on the live stream (and its budgeted
	// cuts) rather than all landing in one reconnect's backlog.
	for i := 0; i < 50; i++ {
		churn(t, h.svc, rng, 1)
		time.Sleep(time.Millisecond)
	}

	last := h.ld.State().Epoch
	waitForEpoch(t, folBodies, last)
	mu.Lock()
	sawCuts := conns
	mu.Unlock()
	// The first connection's 90-byte budget cannot survive 50 frames, so
	// at least one cut-and-resume cycle must have happened; usually several.
	if sawCuts < 2 {
		t.Fatalf("only %d stream connections; the cut path never exercised", sawCuts)
	}
	for e := uint64(1); e <= last; e++ {
		if folBodies.get(e).body != nil {
			requireSameEpoch(t, "follower across reconnects", e, h.bodies, folBodies)
		}
	}
	// Each applied epoch must have arrived exactly once (duplicate frames
	// after a resume would fail Apply's epoch check and kill the link).
	if st := fol.Stats(); st.Replica == nil || st.Replica.Epoch != last {
		t.Fatalf("replica status %+v, want epoch %d", st.Replica, last)
	}
}

// statusRecorder notes the response status a wrapped handler wrote, for
// asserting which branch (200 stream vs 410 Gone) a connection took.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Test410MidStream exercises the full fall-out-and-recover cycle on a
// live follower: its stream is cut mid-frame, every reconnect attempt is
// refused while the leader churns the retention ring past the follower's
// epoch, and when connections resume the leader answers 410 — which must
// trigger a checkpoint re-bootstrap and end in byte-identical convergence.
func Test410MidStream(t *testing.T) {
	h := startLeader(t, faultfs.New(), testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 4})

	var mu sync.Mutex
	conns, saw410 := 0, 0
	outage := true // refuses reconnects until the ring has moved on
	mux := http.NewServeMux()
	mux.HandleFunc("GET /wal/checkpoint", h.rec.HandleCheckpoint)
	mux.HandleFunc("GET /wal/stream", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := conns
		conns++
		down := outage
		mu.Unlock()
		if n > 0 && down {
			panic(http.ErrAbortHandler) // outage window: the link stays dead
		}
		var rec *statusRecorder
		if n == 0 {
			// The first session dies partway into a record once the churn
			// below has pushed enough bytes.
			rec = &statusRecorder{ResponseWriter: &cutWriter{ResponseWriter: w, budget: 256}}
		} else {
			rec = &statusRecorder{ResponseWriter: w}
		}
		h.rec.HandleStream(rec, r)
		if rec.code == http.StatusGone {
			mu.Lock()
			saw410++
			mu.Unlock()
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer h.ld.Close()
	defer h.svc.Close()

	folBodies := newBodyLog()
	fol, stopFol := startFollower(t, ts.URL, folBodies)
	defer stopFol()
	waitConnected(t, fol)
	// Connected flips on the bootstrap publish, before the stream request
	// lands — wait for the actual stream session so the churn below flows
	// (and dies) through the budgeted first connection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := conns
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never opened a stream connection")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Churn far past the 16-frame ring (4×CheckpointEvery) while the
	// follower cannot reconnect: its next resume point is guaranteed out
	// of the window.
	rng := rand.New(rand.NewSource(19))
	churn(t, h.svc, rng, 42)
	mu.Lock()
	outage = false
	mu.Unlock()

	last := h.ld.State().Epoch
	waitForEpoch(t, folBodies, last)

	mu.Lock()
	gone := saw410
	mu.Unlock()
	if gone == 0 {
		t.Fatal("no stream request was answered 410; the re-bootstrap path never exercised")
	}
	requireSameEpoch(t, "follower after 410 re-bootstrap", last, h.bodies, folBodies)
	st := fol.Stats()
	if st.Replica == nil || st.Replica.Reconnects == 0 {
		t.Fatalf("replica status %+v, want reconnects > 0", st.Replica)
	}
}

// TestEpochLagStalledLeader pins the lag metric against a leader that
// serves a real checkpoint, advertises a far-ahead epoch in the
// response headers, and then never sends a frame: the follower must
// report Connected with Lag exactly advertised − applied.
func TestEpochLagStalledLeader(t *testing.T) {
	// A real harness mints the checkpoint bytes the fake leader serves.
	h := startLeader(t, faultfs.New(), testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 4})
	defer h.ld.Close()
	defer h.svc.Close()
	rng := rand.New(rand.NewSource(29))
	churn(t, h.svc, rng, 10)

	rr := httptest.NewRecorder()
	h.rec.HandleCheckpoint(rr, httptest.NewRequest(http.MethodGet, "/wal/checkpoint", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", rr.Code)
	}
	ckpt := rr.Body.Bytes()
	st, err := wal.NewRecordReader(bytes.NewReader(ckpt)).NextCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	stalled := st.Epoch + 1000
	hdr := strconv.FormatUint(stalled, 10)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /wal/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wal.EpochHeader, hdr)
		w.Write(ckpt)
	})
	mux.HandleFunc("GET /wal/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wal.EpochHeader, hdr)
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done() // stalled: headers went out, frames never do
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	fol, stopFol := startFollower(t, ts.URL, nil)
	defer stopFol()

	deadline := time.Now().Add(10 * time.Second)
	for {
		rs := fol.Stats().Replica
		if rs != nil && rs.Connected && rs.Epoch == st.Epoch &&
			rs.LeaderEpoch == stalled && rs.Lag == stalled-st.Epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica status %+v, want connected at epoch %d with lag %d",
				rs, st.Epoch, stalled-st.Epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRetentionGone pins the 410 contract: a stream request from before
// the in-memory ring answers Gone, and a live follower that far behind
// re-bootstraps from the checkpoint and converges anyway.
func TestRetentionGone(t *testing.T) {
	h := startLeader(t, faultfs.New(), testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 4})
	ts := httptest.NewServer(h.mux)
	defer ts.Close()
	defer h.ld.Close()
	defer h.svc.Close()

	rng := rand.New(rand.NewSource(13))
	churn(t, h.svc, rng, 42)

	resp, err := http.Get(ts.URL + "/wal/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream from epoch 1 after 42 epochs: status %d, want 410", resp.StatusCode)
	}

	// A follower that bootstraps now and keeps up stays converged.
	folBodies := newBodyLog()
	_, stopFol := startFollower(t, ts.URL, folBodies)
	defer stopFol()
	churn(t, h.svc, rng, 10)
	last := h.ld.State().Epoch
	waitForEpoch(t, folBodies, last)
	requireSameEpoch(t, "follower after re-bootstrap window", last, h.bodies, folBodies)
}

// TestKillRecoverLoop is the crash-recovery invariant test: repeatedly
// churn, crash without any shutdown path, recover, and assert that the
// recovered service (a) lost nothing that was acknowledged (SyncAlways) —
// same state body and the same /stats topology numbers, bit for bit, as
// the leader served before the crash — (b) serves a topology whose
// spanner stretch is within t, and (c) keeps accepting mutations.
func TestKillRecoverLoop(t *testing.T) {
	fs := faultfs.New()
	rng := rand.New(rand.NewSource(17))
	var acked uint64
	var ackedLog *bodyLog

	for round := 0; round < 5; round++ {
		h := startLeader(t, fs, testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 7})
		if round > 0 {
			if got := h.ld.State().Epoch; got != acked {
				t.Fatalf("round %d: recovered epoch %d, want acknowledged %d", round, got, acked)
			}
			requireSameEpoch(t, fmt.Sprintf("round %d: recovered vs acknowledged", round), acked, ackedLog, h.bodies)
		}

		// The recovered topology must satisfy the spanner contract before
		// serving: stretch ≤ t against the base graph.
		snap := h.svc.Snapshot()
		if s := metrics.Stretch(snap.Base, snap.Spanner); s > testT+1e-9 {
			t.Fatalf("round %d: recovered spanner stretch %v > t=%v", round, s, testT)
		}
		if !h.svc.Ready() {
			t.Fatalf("round %d: recovered service not ready", round)
		}

		churn(t, h.svc, rng, 9+round) // crosses checkpoint boundaries on some rounds
		if err := h.ld.Err(); err != nil {
			t.Fatalf("round %d: wal pipeline: %v", round, err)
		}
		acked, ackedLog = h.ld.State().Epoch, h.bodies

		h.svc.Close() // stop the writer; the "kill" is the un-closed recorder
		fs.Crash()    // power off: whatever was not fsynced is gone
	}

	// Final recovery, then verify routes still answer on the survivor.
	h := startLeader(t, fs, testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 7})
	defer h.svc.Close()
	defer h.ld.Close()
	if got := h.ld.State().Epoch; got != acked {
		t.Fatalf("final recovery at epoch %d, want %d", got, acked)
	}
	requireSameEpoch(t, "final recovery vs acknowledged", acked, ackedLog, h.bodies)
	snap := h.svc.Snapshot()
	routed := 0
	for src := 0; src < len(snap.Alive) && routed < 5; src++ {
		for dst := len(snap.Alive) - 1; dst > src && routed < 5; dst-- {
			if !snap.Alive[src] || !snap.Alive[dst] {
				continue
			}
			res, err := h.svc.Route(routing.SchemeShortestPath, src, dst)
			if err != nil {
				t.Fatalf("route(%d,%d) after recovery: %v", src, dst, err)
			}
			if res.Route.Delivered {
				if res.Stretch > testT+1e-9 {
					t.Fatalf("route(%d,%d) stretch %v > t", src, dst, res.Stretch)
				}
				routed++
			}
		}
	}
	if routed == 0 {
		t.Fatal("no routable pair survived recovery")
	}
}

// switchProxy is a replication endpoint at a stable URL whose backend
// leader can be swapped: what a follower sees across a leader restart, or
// when it is re-pointed at a different leader. Requests carry the
// follower's context so a follower disconnect tears down the backend
// stream too — otherwise an idle stream pins the leader's server shut-down.
func switchProxy(t *testing.T) (proxy *httptest.Server, setBackend func(url string)) {
	t.Helper()
	var mu sync.Mutex
	backend := ""
	setBackend = func(u string) { mu.Lock(); defer mu.Unlock(); backend = u }
	get := func() string { mu.Lock(); defer mu.Unlock(); return backend }
	proxy = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		preq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, get()+r.URL.String(), nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(preq)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		flusher, _ := w.(http.Flusher)
		buf := make([]byte, 512)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
			if rerr != nil {
				return
			}
		}
	}))
	return proxy, setBackend
}

// TestLeaderRestartFollowerResumes restarts the leader under a follower:
// the follower must survive the outage and resume on the recovered
// leader without diverging (the hash chain spans the restart). At the
// restart epoch the recovered leader, the pre-restart leader and the
// follower serve bit-identical /stats topology numbers.
func TestLeaderRestartFollowerResumes(t *testing.T) {
	fs := faultfs.New()
	h := startLeader(t, fs, testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 8})
	ts := httptest.NewServer(h.mux)

	rng := rand.New(rand.NewSource(23))
	churn(t, h.svc, rng, 15)

	folBodies := newBodyLog()
	proxy, setURL := switchProxy(t)
	defer proxy.Close()
	setURL(ts.URL)

	_, stopFol := startFollower(t, proxy.URL, folBodies)
	churn(t, h.svc, rng, 10)
	waitForEpoch(t, folBodies, h.ld.State().Epoch)

	// Clean leader shutdown and restart from disk.
	stopped := h.ld.State().Epoch
	h.svc.Close()
	if err := h.ld.Close(); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	h2 := startLeader(t, fs, nil, wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 8})
	defer h2.svc.Close()
	defer h2.ld.Close()
	if h2.ld.State().Epoch != stopped {
		t.Fatalf("leader restarted at epoch %d, want %d", h2.ld.State().Epoch, stopped)
	}
	requireSameEpoch(t, "restarted vs pre-restart leader", stopped, h.bodies, h2.bodies)
	requireSameEpoch(t, "follower vs restarted leader", stopped, h2.bodies, folBodies)
	ts2 := httptest.NewServer(h2.mux)
	defer ts2.Close()
	// Registered after ts2.Close so it runs first: the follower must stop
	// (ending its proxied stream) before ts2.Close waits out connections.
	defer stopFol()
	setURL(ts2.URL)

	churn(t, h2.svc, rng, 10)
	last := h2.ld.State().Epoch
	waitForEpoch(t, folBodies, last)
	for e := stopped + 1; e <= last; e++ {
		requireSameEpoch(t, "follower across the leader restart", e, h2.bodies, folBodies)
	}
}

// goldenChainHead is the WAL hash-chain head (and goldenEpoch its epoch)
// after the fixed script in TestGoldenChainHead. A frame carries the
// post-commit rows of every touched vertex in the leader's row order, so
// the head pins the whole write path — repair, delta export, frame
// capture — down to the byte: a change that moves it changes what
// followers and recovery rebuild, and must say so.
const (
	goldenEpoch     = 143
	goldenChainHead = "1e8df7afbdae76fa90ca54f590b88631c7acf870b6b2d73193abbe6fa383871b"
)

// TestGoldenChainHead boots a WAL leader over a fixed deployment, applies
// a fixed script of join/leave/move batches of one to four ops, and pins
// the resulting chain head.
func TestGoldenChainHead(t *testing.T) {
	h := startLeader(t, faultfs.New(), testPoints(48), wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 16})
	defer h.ld.Close()
	defer h.svc.Close()

	rng := rand.New(rand.NewSource(41))
	slots := len(h.svc.Snapshot().Alive)
	for i := 0; i < 150; i++ {
		batch := make([]service.Op, 1+i%4)
		for j := range batch {
			batch[j] = randomOp(rng, slots)
		}
		if _, err := h.svc.Mutate(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.ld.Err(); err != nil {
		t.Fatal(err)
	}
	epoch, chain := h.rec.Epoch()
	if got := hex.EncodeToString(chain[:]); epoch != goldenEpoch || got != goldenChainHead {
		t.Fatalf("chain head at epoch %d is %s, want epoch %d head %s", epoch, got, goldenEpoch, goldenChainHead)
	}
}

// TestFollowerRejectsForkedLeader re-points a follower at a second leader
// whose history forked from the first one's: the same genesis and the
// same first batches, then the same node moved to different places at
// epoch k. The second leader's frame k+1 is well formed and at the right
// epoch, so only the hash chain shows that it does not extend the
// follower's state: the follower must reject it with wal.ErrChainMismatch
// and re-bootstrap onto the new history rather than serve a splice of the
// two.
func TestFollowerRejectsForkedLeader(t *testing.T) {
	opts := wal.Options{Sync: wal.SyncAlways, CheckpointEvery: 64}
	a := startLeader(t, faultfs.New(), testPoints(48), opts)
	b := startLeader(t, faultfs.New(), testPoints(48), opts)
	tsA, tsB := httptest.NewServer(a.mux), httptest.NewServer(b.mux)
	defer tsB.Close()
	defer b.ld.Close()
	defer b.svc.Close()

	churn(t, a.svc, rand.New(rand.NewSource(31)), 12)
	churn(t, b.svc, rand.New(rand.NewSource(31)), 12)
	ea, ca := a.rec.Epoch()
	if eb, cb := b.rec.Epoch(); ea != eb || ca != cb {
		t.Fatalf("the common prefix diverged: epoch %d vs %d", ea, eb)
	}
	id := 0
	for !a.svc.Snapshot().Alive[id] {
		id++
	}
	move := func(svc *service.Service, p geom.Point) {
		t.Helper()
		res, err := svc.Mutate([]service.Op{{Kind: service.OpMove, ID: id, Point: p}})
		if err != nil || res.Applied != 1 {
			t.Fatalf("move %d: %+v %v", id, res, err)
		}
	}
	move(a.svc, geom.Point{0.5, 0.5})
	move(b.svc, geom.Point{1.5, 1.5}) // the fork: epoch k differs
	k := a.ld.State().Epoch
	move(b.svc, geom.Point{2.5, 2.5}) // frame k+1 exists only on b's history
	last := b.ld.State().Epoch

	folBodies := newBodyLog()
	proxy, setURL := switchProxy(t)
	defer proxy.Close()
	setURL(tsA.URL)
	_, stopFol := startFollower(t, proxy.URL, folBodies)
	defer stopFol()
	waitForEpoch(t, folBodies, k)
	requireSameEpoch(t, "follower on the first leader", k, a.bodies, folBodies)

	// Re-point, then end the stream from a: the follower resumes from k on b.
	setURL(tsB.URL)
	a.svc.Close()
	if err := a.ld.Close(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	waitForEpoch(t, folBodies, last)
	if !folBodies.logged(wal.ErrChainMismatch.Error()) {
		t.Fatalf("follower took the forked frame %d without a chain mismatch", k+1)
	}
	for e := k; e <= last; e++ {
		requireSameEpoch(t, "follower after re-bootstrap onto the fork", e, b.bodies, folBodies)
	}
}
