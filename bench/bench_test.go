package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"topoctl/internal/service"
	"topoctl/internal/wal"
)

// The harness makes every input from the seed: the same seed must give the
// daemon the same bytes and the clients the same requests.
func TestInputsRepeatForASeed(t *testing.T) {
	gen := func(seed int64) (file, queries, batches []byte) {
		pts := genPoints(512, seed)
		path := filepath.Join(t.TempDir(), "points.topo")
		if err := writePoints(path, pts); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var qs []query
		qs = append(qs, take(zipfOver(hotSet(512, 64, seed), clientRng(seed, 1, 0)), 200)...)
		qs = append(qs, take(uniformPairs(idRange(512), clientRng(seed, 1, 1), true), 200)...)
		plan := genChurn(pts, 30, seed)
		qs = append(qs, take(zipfAlternating(plan.readable, clientRng(seed, 3, 0)), 200)...)
		for _, q := range qs {
			queries = append(append(queries, q.path()...), q.body()...)
		}
		batches, err = json.Marshal(plan.batches)
		if err != nil {
			t.Fatal(err)
		}
		return file, queries, batches
	}
	f1, q1, b1 := gen(5)
	f2, q2, b2 := gen(5)
	if !bytes.Equal(f1, f2) || !bytes.Equal(q1, q2) || !bytes.Equal(b1, b2) {
		t.Error("the same seed produced different inputs")
	}
	f3, q3, b3 := gen(6)
	if bytes.Equal(f1, f3) || bytes.Equal(q1, q3) || bytes.Equal(b1, b3) {
		t.Error("a different seed reproduced an input")
	}
}

// No op of a churn plan may fail, whatever slot a join lands in: leaves and
// moves address only initial nodes still present, and the reader's ids are
// never removed.
func TestChurnPlanNeverAddressesADepartedNode(t *testing.T) {
	pts := genPoints(256, 3)
	plan := genChurn(pts, 100, 3)
	gone := map[int]bool{}
	for _, ops := range plan.batches {
		if len(ops) != batchOps {
			t.Fatalf("batch of %d ops, want %d", len(ops), batchOps)
		}
		for _, op := range ops {
			if op.Kind != service.OpJoin && (gone[op.ID] || op.ID >= len(pts)) {
				t.Fatalf("%s addresses node %d, which is not an initial node still present", op.Kind, op.ID)
			}
		}
		for _, op := range ops { // the leave is last in its batch
			if op.Kind == service.OpLeave {
				gone[op.ID] = true
			}
		}
	}
	for _, id := range plan.readable {
		if gone[id] {
			t.Fatalf("reader may address departed node %d", id)
		}
	}
	if len(plan.readable) != len(pts)-100 {
		t.Errorf("%d readable ids after 100 leaves of %d nodes", len(plan.readable), len(pts))
	}
}

func TestPercentilesAndTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v", got)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v", got)
	}
	// 1000 samples leave exactly ten beyond the p99: supported.
	if v, q := tail(xs, 0.99); v != 990 || q != 0.99 {
		t.Errorf("tail(1..1000, .99) = %v at %v", v, q)
	}
	// 200 samples leave only two beyond the p99: report the highest rank
	// with ten beyond it, and say which quantile that is.
	if v, q := tail(xs[:200], 0.99); v != 190 || q != 0.95 {
		t.Errorf("tail(1..200, .99) = %v at %v, want 190 at 0.95", v, q)
	}
	// Too few samples for any tail: never below the median.
	if v, q := tail(xs[:12], 0.95); v != 6 || q != 0.5 {
		t.Errorf("tail(1..12, .95) = %v at %v, want the median", v, q)
	}
	if v, q := tail(nil, 0.95); v != 0 || q != 0 {
		t.Errorf("tail of nothing = %v at %v", v, q)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if s := summarize([]float64{10, 30, 20}); s != (summary{Value: 20, Min: 10, Max: 30, Median: 20}) {
		t.Errorf("summarize = %+v", s)
	}
}

// The driver judges steadiness with Python's statistics.quantiles(n=4);
// the harness must agree with it digit for digit.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got := quartileSpread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	three := []float64{10, 30, 20} // quantiles: 10, 20, 30
	if got := quartileSpread(three); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of {10,20,30} = %v, want 1", got)
	}
	two := []float64{4, 2} // quantiles: 1.5, 3, 4.5
	if got := quartileSpread(two); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of {2,4} = %v, want 1", got)
	}
}

// A read phase cuts the slices in which a kind was sent into windows and
// reports the best one; the warm-up counts for nothing, and a kind too slow
// to fill short windows gets one window per slice.
func TestReadPhaseWindows(t *testing.T) {
	ms := time.Millisecond
	ph := &readPhase{warm: 100 * ms, total: 4100 * ms, slice: time.Second}
	add := func(start, lat time.Duration, dist bool, n int) {
		for i := 0; i < n; i++ {
			ph.samples = append(ph.samples, sample{start: start, lat: lat, dist: dist})
		}
	}
	// /route in slices 0 and 2, slow: one window per slice.
	add(100*ms+10*ms, 3*ms, false, 100)
	add(100*ms+2500*ms, 2*ms, false, 300)
	// /distance in slices 1 and 3, fast enough for four 250 ms windows per
	// slice; the third window of slice 3 is the quiet one.
	for w := 0; w < 4; w++ {
		add(100*ms+1000*ms+time.Duration(w)*250*ms+ms, 200*time.Microsecond, true, 2500)
		lat, n := 200*time.Microsecond, 2500
		if w == 2 {
			lat, n = 100*time.Microsecond, 5000
		}
		add(100*ms+3000*ms+time.Duration(w)*250*ms+ms, lat, true, n)
	}
	rs := ph.stats(false)
	if rs.n != 400 || rs.qps.Value != 300 || rs.qps.Min != 100 || rs.p50us.Value != 2000 || rs.p50us.Max != 3000 {
		t.Errorf("/route: qps %+v p50 %+v over %d samples; want best 300/s and 2000 us of two one-second windows", rs.qps, rs.p50us, rs.n)
	}
	ds := ph.stats(true)
	if ds.n != 22500 || ds.qps.Value != 20000 || ds.qps.Median != 10000 || ds.p50us.Value != 100 || ds.p50us.Median != 200 {
		t.Errorf("/distance: qps %+v p50 %+v over %d samples; want best 20000/s and 100 us of eight 250 ms windows", ds.qps, ds.p50us, ds.n)
	}
	if none := (&readPhase{total: time.Second}).stats(false); none.n != 0 || none.qps.Value != 0 {
		t.Errorf("empty phase: %+v", none)
	}
}

// The writer's run is cut into whole windows of mutateWindow batches and
// reports the best window's median; a trailing part-window counts for
// nothing, and a run shorter than one window is one window.
func TestMutateWindows(t *testing.T) {
	var m mutateRun
	for w, lat := range []float64{5, 3, 4} {
		for i := 0; i < mutateWindow; i++ {
			m.latMs = append(m.latMs, lat+float64(i%2)*float64(w)) // medians 5, 3.5, 5
		}
	}
	m.latMs = append(m.latMs, 1, 1, 1) // part of a fourth window
	if s := m.windowP50(); s.Value != 3.5 || s.Min != 3.5 || s.Median != 5 || s.Max != 5 {
		t.Errorf("three windows and a bit: %+v, want the best 3.5 of medians {5, 3.5, 5}", s)
	}
	short := mutateRun{latMs: []float64{2, 9, 4}}
	if s := short.windowP50(); s.Value != 4 {
		t.Errorf("short run: %+v, want its median 4", s)
	}
}

// The open-loop writer times every batch from when it was due: a stall of
// the server must be charged to the batches queued behind it, and the
// generator must report how far behind its schedule it ran.
func TestOpenLoopChargesQueueingToLaterBatches(t *testing.T) {
	const stallAt, stall, period = 2, 300 * time.Millisecond, 50 * time.Millisecond
	seen := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.MutateRequest
		json.NewDecoder(r.Body).Decode(&req)
		if seen == stallAt {
			time.Sleep(stall)
		}
		seen++
		json.NewEncoder(w).Encode(service.MutateResult{Version: uint64(seen + 1), Applied: len(req.Ops)})
	}))
	defer srv.Close()
	batches := genChurn(genPoints(64, 1), 12, 1).batches
	run := runMutator(newHTTPClient(), srv.URL, batches, period)
	if run.failed != 0 || len(run.latMs) != len(batches) {
		t.Fatalf("%d failed, %d latencies", run.failed, len(run.latMs))
	}
	if run.latMs[0] > 40 || run.lateMs[0] > 20 {
		t.Errorf("first batch: latency %.1f ms, lateness %.1f ms on an idle server", run.latMs[0], run.lateMs[0])
	}
	if run.latMs[stallAt] < 290 {
		t.Errorf("stalled batch latency %.1f ms, want the %v stall", run.latMs[stallAt], stall)
	}
	// Batch stallAt+1 was due 50 ms into a 300 ms stall: it waited ~250 ms
	// before it could even be sent, and that wait is its latency.
	if next := stallAt + 1; run.latMs[next] < 200 || run.lateMs[next] < 200 {
		t.Errorf("batch behind the stall: latency %.1f ms, lateness %.1f ms, want ≥200 of each", run.latMs[next], run.lateMs[next])
	}
	if last := len(batches) - 1; run.lateMs[last] > 20 {
		t.Errorf("generator still %.1f ms late after the backlog drained", run.lateMs[last])
	}
	if v, err := run.lastVersion(); err != nil || v != uint64(len(batches)+1) {
		t.Errorf("last acknowledged version %d, %v", v, err)
	}
}

func TestCountingFSCountsExactly(t *testing.T) {
	cfs := &countingFS{FS: wal.OS}
	name := filepath.Join(t.TempDir(), "log")
	f, err := cfs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 10))
	f.Sync()
	f.Write(make([]byte, 5))
	f.Sync()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = cfs.Append(name); err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 7))
	f.Sync()
	f.Close()
	if b, s := cfs.bytes.Load(), cfs.syncs.Load(); b != 22 || s != 3 {
		t.Errorf("counted %d bytes and %d syncs, want 22 and 3", b, s)
	}
	if size, err := dirBytes(filepath.Dir(name)); err != nil || size != 22 {
		t.Errorf("directory holds %d bytes (%v), want 22", size, err)
	}
}

// A layer's self time is its span minus what its children cover.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond) }
	tr.record(1, 0, 1, "client", at(0), at(100))
	tr.record(2, 1, 1, "server", at(10), at(70))
	tr.record(3, 2, 1, "kernel", at(500), at(530)) // a replay: later on the clock, still a child
	tr.record(4, 2, 1, "kernel", at(600), at(650)) // children cover more than the parent: self is 0, not negative
	self := tr.selfTimes()
	if got := self["client"]; !reflect.DeepEqual(got, []float64{40}) {
		t.Errorf("client self %v, want [40]", got)
	}
	if got := self["server"]; !reflect.DeepEqual(got, []float64{0}) {
		t.Errorf("server self %v, want [0]", got)
	}
	if got := self["kernel"]; !reflect.DeepEqual(got, []float64{30, 50}) {
		t.Errorf("kernel self %v, want [30 50]", got)
	}

	// What one process writes, another merges unchanged.
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	tr.count("wal.syncs", 3)
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	back := newTracer()
	if err := back.merge(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.spans, tr.spans) || back.counts["wal.syncs"] != 3 {
		t.Errorf("merged %d spans and counts %v", len(back.spans), back.counts)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m            metricSpec
		a, b         []float64
		spread       float64
		want         string
		wantWorseMin float64
	}{
		{lower, []float64{100, 101, 99}, []float64{105, 104, 106}, 0.02, "ok", 0.04},
		{lower, []float64{100, 101, 99}, []float64{115, 114, 116}, 0.02, "regressed", 0.14},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, 0.02, "regressed", 0.14},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, 0.02, "ok", -0.21},
		// Within the bound, but the runs scatter wider than the bound: no verdict...
		{lower, []float64{100, 120, 80}, []float64{104, 90, 118}, 0.2, "unresolved", 0.03},
		// ...unless every run of B beats every run of A.
		{lower, []float64{100, 120, 90}, []float64{70, 60, 80}, 0.2, "ok", -0.31},
	} {
		worse, got := verdict(c.m, c.a, c.b, c.spread, c.spread)
		if got != c.want || worse < c.wantWorseMin {
			t.Errorf("%s %v → %v: %s (worse by %.3f), want %s", c.m.Name, c.a, c.b, got, worse, c.want)
		}
	}
}

// Every metric the harness can produce must be one BENCHMARK.json names,
// and the four workloads must be the ones it lists.
func TestSpecNamesTheWorkloads(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range sp.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Errorf("BENCHMARK.json lists %v, the harness runs %v", listed, workloadNames)
	}
	have := false
	for _, m := range sp.EndToEnd {
		have = have || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !have {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

// -quick end to end: every workload, against a real child daemon, must
// complete with no failed operation and every end-to-end metric measured.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots child daemons")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	sp, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	c := runCfg{seed: 2, seconds: 3.5, quick: true}
	for _, name := range workloadNames {
		r, err := endToEnd(e, c, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, r.Failed, r.Attempted, r.Errors)
		}
		for _, m := range sp.EndToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v (measured: %v)", name, m.Name, v, ok)
			}
		}
	}
	if len(e.children) != 0 {
		t.Errorf("%d child processes left running", len(e.children))
	}
}
