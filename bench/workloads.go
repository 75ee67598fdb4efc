package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"topoctl"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// Workload names. They are permanent: later issues cite them.
const (
	wlRouteHot  = "route-hot"
	wlRouteCold = "route-cold"
	wlChurn     = "churn-durable"
	wlBuild     = "build-8k"
)

var workloadNames = []string{wlRouteHot, wlRouteCold, wlChurn, wlBuild}

// Quality ceilings on every spanner build-8k produces — the paper's
// contract (stretch ≤ 1+ε, constant degree, weight O(w(MST))) with the
// constants observed at this size plus headroom. A build that breaks one
// is a failed operation, so a speed-up bought with quality shows.
const (
	buildEps         = 0.5
	buildAlpha       = 0.75
	maxDegreeCap     = 12
	weightOverMSTCap = 3.5
	distSeed         = 7 // BuildDistributed's MIS seed, fixed so rounds/messages repeat
)

// runCfg is what the command line fixes for one run.
type runCfg struct {
	seed    int64
	seconds float64
	quick   bool
}

// n scales a workload's vertex count: the stated size, or 256 with -quick.
func (c runCfg) n(full int) int {
	if c.quick {
		return 256
	}
	return full
}

func (c runCfg) dur(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// value is one reported metric.
type value struct {
	summary
	Unit string `json:"unit"`
}

// result is the outcome of one workload run.
type result struct {
	Workload  string           `json:"workload"`
	Metrics   map[string]value `json:"metrics"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

func newResult(name string) *result { return &result{Workload: name, Metrics: map[string]value{}} }

func (r *result) set(name, unit string, s summary) { r.Metrics[name] = value{summary: s, Unit: unit} }

func (r *result) setOne(name, unit string, v float64) {
	r.set(name, unit, summary{Value: v, Min: v, Max: v, Median: v})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// count adds operations to the workload's totals.
func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *result) verified(v *verifier) {
	r.count(v.checked, v.failed)
	for _, err := range v.errs {
		r.Errors = append(r.Errors, err.Error())
	}
}

// fail records an operation that could not be carried out at all.
func (r *result) fail(err error) {
	r.count(1, 1)
	r.Errors = append(r.Errors, err.Error())
}

// setRead records a read stream twice: under the operation's own name
// (route_qps, route_p50_us, route_p99_us: the names the issues use) and,
// when role is set, as the workload's primary or secondary operation — the
// generic end-to-end metrics BENCHMARK.json gates on every workload.
func (r *result) setRead(op, role string, rs readStats) {
	r.set(op+"_qps", "1/s", rs.qps)
	r.set(op+"_p50_us", "us", rs.p50us)
	r.setOne(op+"_p99_us", "us", rs.p99us)
	if rs.p99q < 0.99 {
		r.note("%s_p99_us is the p%.1f: %d samples leave fewer than ten beyond the p99", op, 100*rs.p99q, rs.n)
	}
	if role != "" {
		r.set(role+"_per_s", "1/s", rs.qps)
		r.set(role+"_p50_ms", "ms", scale(rs.p50us, 1e-3))
	}
}

func scale(s summary, k float64) summary {
	return summary{s.Value * k, s.Min * k, s.Max * k, s.Median * k}
}

// boot writes the deployment file and boots the daemon `times` times (a
// fresh WAL directory each time when durable), killing all but the last.
// It returns the survivor, its WAL directory and the boot times in seconds.
func boot(e *env, pts []geom.Point, durable bool, times int) (d *daemon, file, walDir string, setup []float64, err error) {
	dir, err := e.dir("deploy")
	if err != nil {
		return nil, "", "", nil, err
	}
	file = filepath.Join(dir, "points.topo")
	if err := writePoints(file, pts); err != nil {
		return nil, "", "", nil, err
	}
	for i := 0; i < times; i++ {
		if d != nil {
			d.kill()
		}
		if durable {
			if walDir, err = e.dir("wal"); err != nil {
				return nil, "", "", nil, err
			}
		}
		if d, err = e.spawn(file, walDir); err != nil {
			return nil, "", "", nil, err
		}
		setup = append(setup, d.ready.Seconds())
	}
	return d, file, walDir, setup, nil
}

// finishDaemon records the daemon's peak memory and stops it.
func finishDaemon(r *result, d *daemon) {
	if mb, err := d.rssPeakMB(); err != nil {
		r.fail(err)
	} else {
		r.setOne("rss_peak_mb", "MB", mb)
	}
	d.kill()
}

// verifyReads checks the sampled replies of a read-only daemon workload
// against an in-process replica of the same deployment.
func verifyReads(r *result, pts []geom.Point, ph *readPhase) {
	rep, err := newReference(pts)
	if err != nil {
		r.fail(err)
		return
	}
	defer rep.close()
	var v verifier
	for _, rp := range ph.replies {
		v.add(rep.check(rp))
	}
	r.verified(&v)
}

// readSlice is how long the read workloads stay on one request kind
// before switching to the other. Alternating, rather than running the two
// kinds one after the other, lets the windows of each kind span the whole
// run, so both get the same chance of meeting the host in a quiet spell.
const readSlice = 2 * time.Second

// readWorkload is the shape route-hot and route-cold share: boot, then two
// closed-loop clients that alternate every readSlice between /route (the
// primary operation) and /distance (the secondary) for the length of the
// run, then verification of sampled replies. streams makes one client's
// stream of one kind.
//
// The workload is only what it claims to be while the route cache behaves as
// stated (hit share at least hitFloor and at most hitCeil) and the labels
// answer every /distance; a run where they do not has failed.
func readWorkload(e *env, c runCfg, r *result, pts []geom.Point, boots int, prepare func(*daemon),
	streams func(client int, dist bool) querySource, hitFloor, hitCeil float64) error {
	d, _, _, setup, err := boot(e, pts, false, boots)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", summarize(setup))
	prepare(d)
	warm := min(readSlice, c.dur(0.1))
	clients := make([]clientStream, maxConns)
	for i := range clients {
		clients[i] = alternating(streams(i, false), streams(i, true), warm, readSlice)
	}
	before, _ := getStats(d.base)
	ph := runReadPhase(newHTTPClient(), d.base, clients, warm, c.dur(1), readSlice, 1024, c.seed)
	after, _ := getStats(d.base)
	r.count(ph.attempted, ph.failed)
	r.setRead("route", "primary", ph.stats(false))
	r.setRead("distance", "secondary", ph.stats(true))
	cacheHits, labelHits := after.hitShares(before)
	r.setOne("route_cache_hit_share", "ratio", cacheHits)
	r.setOne("label_hit_share", "ratio", labelHits)
	var v verifier
	// (-quick's 256 nodes have too few pairs for a cold working set.)
	if !c.quick && (cacheHits < hitFloor || cacheHits > hitCeil) {
		v.add(fmt.Errorf("route cache hit share %.3f outside the workload's [%.2f, %.2f]", cacheHits, hitFloor, hitCeil))
	}
	if labelHits < 0.95 {
		v.add(fmt.Errorf("label hit share %.3f: /distance fell back to the search", labelHits))
	}
	r.verified(&v)
	finishDaemon(r, d)
	verifyReads(r, pts, ph)
	return nil
}

// routeHot: n=4096; both phases draw zipf(1.2) from one fixed 2048-pair
// hot set that fits the route cache and was touched once beforehand.
func routeHot(e *env, c runCfg) (*result, error) {
	r := newResult(wlRouteHot)
	n := c.n(4096)
	hot := hotSet(n, min(hotPairs, n/2), c.seed)
	pretouch := func(d *daemon) { untraced(r, d.base, readSteps(hot)) } // every later /route can hit
	return r, readWorkload(e, c, r, genPoints(n, c.seed), 3, pretouch, func(client int, dist bool) querySource {
		src := zipfOver(hot, clientRng(c.seed, 1+b2i(dist), client))
		return func() query { q := src(); q.dist = dist; return q }
	}, 0.95, 1)
}

// routeCold: n=16384 with labels on; uniform random pairs, so the working
// set dwarfs the route cache and every /route is two searches and a long
// path, every /distance a label intersection.
func routeCold(e *env, c runCfg) (*result, error) {
	r := newResult(wlRouteCold)
	n := c.n(16384)
	ids := idRange(n)
	return r, readWorkload(e, c, r, genPoints(n, c.seed), 2, func(*daemon) {}, func(client int, dist bool) querySource {
		return uniformPairs(ids, clientRng(c.seed, 1+b2i(dist), client), dist)
	}, 0, 0.05)
}

// churnDurable: n=4096 on a WAL with fsync always; an open-loop writer on
// one connection, a closed-loop reader alternating /route and /distance on
// the other; then SIGKILL and recovery from the WAL directory.
func churnDurable(e *env, c runCfg) (*result, error) {
	r := newResult(wlChurn)
	n := c.n(4096)
	pts := genPoints(n, c.seed)
	d, file, walDir, setup, err := boot(e, pts, true, 3)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", summarize(setup))

	batches := int(c.seconds * mutateHz)
	if c.quick {
		batches = 20
	}
	mut, rd := churnTraffic(d.base, pts, batches, time.Second/mutateHz, c.seed)
	r.count(mut.attempted+rd.attempted, mut.failed+rd.failed)
	p50, p95, q := mut.p50p95()
	r.setOne("mutate_p50_ms", "ms", p50)
	r.setOne("mutate_p95_ms", "ms", p95)
	if q < 0.95 {
		r.note("mutate_p95_ms is the p%.1f: %d batches leave fewer than ten beyond the p95", 100*q, len(mut.latMs))
	}
	r.set("primary_p50_ms", "ms", mut.windowP50())
	r.setOne("primary_per_s", "1/s", float64(len(mut.latMs))/mut.elapsed.Seconds())
	_, late := minMax(mut.lateMs)
	r.note("open-loop generator ran at most %.2f ms behind its schedule (median %.3f ms)", late, median(mut.lateMs))
	r.setRead("route", "secondary", rd.stats(false))
	r.setRead("distance", "", rd.stats(true))
	finishDaemon(r, d) // SIGKILL: no final checkpoint, the log tail must be replayed

	var v verifier
	for _, rp := range rd.replies {
		v.add(checkChurnReply(rp))
	}
	last, err := mut.lastVersion()
	v.add(err)
	var recover []float64
	for i := 0; i < 3 && err == nil; i++ {
		var secs float64
		var st stats
		if secs, st, err = recoverOnce(e, file, walDir); err != nil {
			r.fail(err)
			break
		}
		recover = append(recover, secs)
		switch {
		case st.Version != last || st.Nodes != n:
			v.add(fmt.Errorf("recovered version %d with %d nodes, want the last acknowledged version %d with %d", st.Version, st.Nodes, last, n))
		case st.StretchEstimate < 0 || st.StretchEstimate > st.StretchBound+eps:
			v.add(fmt.Errorf("recovered stretch estimate %v outside the bound %v", st.StretchEstimate, st.StretchBound))
		default:
			v.add(nil)
		}
	}
	r.set("recover_s", "s", summarize(recover))
	r.verified(&v)
	return r, nil
}

// recoverOnce restarts the daemon on a copy of the WAL directory the crash
// left (wal.Open re-checkpoints the directory it recovers, so a second
// restart on the same one would have no log to replay) and returns the
// time to /readyz and what the recovered daemon reports.
func recoverOnce(e *env, file, walDir string) (secs float64, st stats, err error) {
	crashed, err := e.dir("crashed")
	if err != nil {
		return 0, st, err
	}
	if err := os.CopyFS(crashed, os.DirFS(walDir)); err != nil {
		return 0, st, err
	}
	d, err := e.spawn(file, crashed)
	if err != nil {
		return 0, st, err
	}
	defer d.kill()
	st, err = getStats(d.base)
	return d.ready.Seconds(), st, err
}

// churnTraffic runs the writer and the reader side by side for
// batches×period and returns both outcomes. The reader keeps every reply.
func churnTraffic(base string, pts []geom.Point, batches int, period time.Duration, seed int64) (*mutateRun, *readPhase) {
	plan := genChurn(pts, batches, seed)
	total := time.Duration(batches) * period
	done := make(chan *readPhase)
	go func() {
		done <- runReadPhase(newHTTPClient(), base, []clientStream{steady(zipfAlternating(plan.readable, clientRng(seed, 3, 0)))},
			total/10, total, 0, -1, seed)
	}()
	mut := runMutator(newHTTPClient(), base, plan.batches, period)
	return mut, <-done
}

// draw is one attempt at an α-UBG instance of build-8k: a uniform cloud at
// expected α-degree 8 with every grey-zone pair connected. It returns nil
// when the cloud came out disconnected.
func draw(n int, seed int64) (*topoctl.Network, error) {
	side := ubg.DensitySide(n, dim, buildAlpha, baseDeg)
	pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: dim, Side: side, Seed: seed})
	g, err := topoctl.BuildUBG(pts, buildAlpha)
	if err != nil || !g.Connected() {
		return nil, err
	}
	return &topoctl.Network{Points: pts, Graph: g}, nil
}

// network draws at the same density (next sub-seed) until the instance is
// connected. topoctl.RandomNetwork densifies on a retry instead, which makes
// the edge count — and the build times — swing by tens of percent from seed
// to seed; a benchmark run on ten seeds wants instances that differ in shape,
// not in size. With drawSecs, every draw is timed (see onOneP) and appended:
// a draw is the same work whether or not it comes out connected, which the
// draws an instance takes are not.
func network(n int, seed int64, drawSecs *[]float64) (nw *topoctl.Network, err error) {
	for try := int64(0); try < 64; try++ {
		one := func() { nw, err = draw(n, seed+try*1_000_003) }
		if drawSecs == nil {
			one()
		} else {
			*drawSecs = append(*drawSecs, onOneP(one))
		}
		if nw != nil || err != nil {
			return nw, err
		}
	}
	return nil, fmt.Errorf("no connected %d-node instance at seed %d", n, seed)
}

// onOneP times f on a single P, from a collected heap as testing.B's runs
// start. build-8k times everything this way. Its builders are
// single-threaded but allocate fast enough that the collector cycles every
// ~10 ms (≈ 490 cycles per distributed build); with two Ps its workers run on
// the other core — the hyperthread sibling of the build's — and the build
// time swings by a third with how the two happen to overlap. On one P the
// time is the whole CPU cost.
func onOneP(f func()) (secs float64) {
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

var buildOpts = topoctl.Options{Epsilon: buildEps, Alpha: buildAlpha, Seed: distSeed}

// setupReps is how many extra draws of its first instance build-8k times:
// one draw takes ~13 ms, too little to time once.
const setupReps = 20

// build8k: no daemon. Rounds of one sequential and one distributed build,
// each round on an α-UBG instance of its own (drawing one is the set-up),
// each output verified exactly. The instances differ because the distributed
// build's time depends on the instance far more than its message count does
// (3.2–3.9 s over ten seeds whose messages differ by ±4 %): a run on one
// instance measures mostly which instance it drew, the median over a run's
// rounds measures the builder.
func build8k(c runCfg) (*result, error) {
	r := newResult(wlBuild)
	n := c.n(8192)
	var setup, seq, dist []float64
	for i := 0; i < setupReps; i++ {
		var err error
		setup = append(setup, onOneP(func() { _, err = draw(n, c.seed) }))
		if err != nil {
			return nil, err
		}
	}
	var v verifier
	start := time.Now()
	// As many whole rounds as fit the budget (judged by the round just
	// finished), and at least one.
	for round := int64(0); ; round++ {
		t0 := time.Now()
		nw, err := network(n, c.seed+round*104_729, &setup)
		if err != nil {
			return nil, err
		}
		mst := graph.MSTWeightOf(nw.Graph)
		// timed times one build and verifies its output (on all Ps).
		timed := func(secs *[]float64, build func() (*topoctl.Result, error)) {
			var res *topoctl.Result
			var err error
			*secs = append(*secs, onOneP(func() { res, err = build() }))
			if err == nil {
				err = checkBuild(nw.Graph, res.Spanner, res.Stretch, mst)
			}
			v.add(err)
		}
		timed(&seq, func() (*topoctl.Result, error) { return topoctl.Build(nw.Points, nw.Graph, buildOpts) })
		timed(&dist, func() (*topoctl.Result, error) {
			res, err := topoctl.BuildDistributed(nw.Points, nw.Graph, buildOpts)
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		})
		if time.Since(start)+time.Since(t0) > c.dur(1) {
			break
		}
	}
	r.set("setup_s", "s", summarize(setup))
	r.set("build_s", "s", summarize(seq))
	r.set("build_dist_s", "s", summarize(dist))
	// The roles report the median build of the run and the rate it would
	// sustain.
	for role, secs := range map[string][]float64{"primary": seq, "secondary": dist} {
		ms := scale(summarize(secs), 1e3)
		r.set(role+"_p50_ms", "ms", ms)
		r.setOne(role+"_per_s", "1/s", 1e3/ms.Value)
	}
	r.verified(&v)
	if mb, err := vmHWM(os.Getpid()); err != nil {
		r.fail(err)
	} else {
		r.setOne("rss_peak_mb", "MB", mb)
	}
	return r, nil
}

// checkBuild verifies one built spanner exactly against the paper's
// contract: stretch ≤ t over every base edge, bounded degree, light weight.
func checkBuild(g, sp *topoctl.Graph, t, mst float64) error {
	st := metrics.Stretch(g, sp)
	deg := metrics.Degrees(sp).Max
	w := sp.TotalWeight() / mst
	switch {
	case math.IsNaN(st) || st > t+eps:
		return fmt.Errorf("build: stretch %v exceeds t=%v", st, t)
	case deg > maxDegreeCap:
		return fmt.Errorf("build: max degree %d exceeds %d", deg, maxDegreeCap)
	case w > weightOverMSTCap:
		return fmt.Errorf("build: weight %.3f×MST exceeds %v×", w, weightOverMSTCap)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
