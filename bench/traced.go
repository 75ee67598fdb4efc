package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"topoctl/internal/core"
	"topoctl/internal/dist"
	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/labels"
	"topoctl/internal/metrics"
	"topoctl/internal/netio"
	"topoctl/internal/replica"
	"topoctl/internal/routing"
	"topoctl/internal/service"
	"topoctl/internal/ubg"
	"topoctl/internal/wal"
)

// Sizes of the traced replay: a fixed prefix of each workload, one client.
const (
	tracedHotReads   = 2000
	tracedColdRoutes = 500
	tracedColdDists  = 2000
	tracedBatches    = 200
	tracedReadsPer   = 10 // reads after each traced batch: 2000 in all
	tracedAllocReqs  = 500
)

// traced runs the per-layer budget of one workload: the same stack built
// in-process from the same generated inputs, served on loopback behind the
// span middleware, driven by one client; each call into a layer is then
// repeated from the harness (on a twin service and a shadow engine that
// have seen the identical history) so that every layer's own time can be
// told apart. It also drives the same requests untraced at a child daemon,
// for the trace.*_ratio fidelity figures. Spans go to out/trace-<name>.jsonl.
func traced(e *env, c runCfg, name string) (*result, error) {
	tr, r := newTracer(), newResult(name)
	var err error
	switch name {
	case wlBuild:
		err = tracedBuild(tr, c, r)
	case wlChurn:
		err = tracedChurn(e, tr, c, r)
	default:
		err = tracedReads(e, tr, c, r)
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.benchD, "out", "trace-"+name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	r.note("%d spans written to %s", len(tr.spans), path)
	return r, nil
}

func svcOptions() service.Options {
	// What `topoctld serve` passes with default flags.
	return service.Options{T: stretchT, Radius: radius, Dim: dim, Seed: 1, Labels: true}
}

// shadow is the harness's own copy of the write path's stages — engine,
// frozen export, label oracle, router — advanced batch by batch alongside
// the served service, so each stage can be timed on its own, and the
// state the kernels are replayed on.
type shadow struct {
	eng      *dynamic.Engine
	pts      []geom.Point
	base, sp *graph.Frozen
	oracle   *labels.Oracle
	router   *routing.Router
	srch     *graph.Searcher
}

func (sh *shadow) newRouter() {
	sh.router, _ = routing.NewRouter(sh.sp, sh.pts) // lengths agree: both come from one export
	sh.router.SetDistanceOracle(sh.oracle)
}

func secs(r *result, name string, d time.Duration) { r.setOne(name, "s", d.Seconds()) }

// bootLayers times, from outside, the stages a daemon boot goes through on
// this deployment, and returns the shadow they leave behind.
func bootLayers(e *env, tr *tracer, r *result, n int, seed int64) (sh *shadow, pts []geom.Point, file string, err error) {
	secs(r, "geom.points_s", tr.once("geom.points", func() { pts = genPoints(n, seed) }))
	dir, err := e.dir("traced")
	if err != nil {
		return nil, nil, "", err
	}
	file = filepath.Join(dir, "points.topo")
	if err := writePoints(file, pts); err != nil {
		return nil, nil, "", err
	}
	secs(r, "netio.read_s", tr.once("netio.read", func() { _, err = netio.ReadFrom(file) }))
	if err != nil {
		return nil, nil, "", err
	}
	var ball *graph.Frozen
	secs(r, "ubg.build_s", tr.once("ubg.build", func() { ball, err = ubg.BuildRadius(pts, radius) }))
	if err != nil {
		return nil, nil, "", err
	}
	secs(r, "greedy.spanner_s", tr.once("greedy.spanner", func() { greedy.Spanner(ball, stretchT) }))

	sh = &shadow{srch: graph.NewSearcher(n)}
	secs(r, "dynamic.new_s", tr.once("dynamic.new", func() {
		sh.eng, err = dynamic.New(pts, dynamic.Options{T: stretchT, Radius: radius, Dim: dim})
	}))
	if err != nil {
		return nil, nil, "", err
	}
	secs(r, "graph.freeze_s", tr.once("graph.freeze", func() { sh.pts, _, sh.base, sh.sp = sh.eng.ExportFrozen() }))
	secs(r, "labels.build_s", tr.once("labels.build", func() { sh.oracle = labels.Build(sh.sp, labels.Options{}) }))
	st := sh.oracle.Stats()
	r.setOne("labels.bytes_per_vertex", "B", st.BytesPerVertex)
	r.setOne("labels.entries_per_vertex", "count", float64(st.Entries)/float64(max(st.Vertices, 1)))
	us := tr.once("routing.new_router", sh.newRouter)
	r.setOne("routing.new_router_us", "us", float64(us)/float64(time.Microsecond))
	return sh, pts, file, nil
}

// serveTraced puts svc on a loopback listener behind the span middleware,
// with the daemon's own server timeouts.
func serveTraced(tr *tracer, svc *service.Service) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           tr.middleware(svc.Handler()),
		ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute,
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// step is one request of a traced sequence: a read, or (ops set) a batch.
type step struct {
	q   query
	ops []service.Op
}

func readSteps(qs []query) []step {
	out := make([]step, len(qs))
	for i, q := range qs {
		out[i].q = q
	}
	return out
}

// replayer drives a traced sequence and performs the depth replays.
type replayer struct {
	tr   *tracer
	r    *result
	cl   *http.Client
	base string
	twin *service.Service
	sh   *shadow
	buf  bytes.Buffer
	req  int64

	misses, settled int64
	diverged        int // replies whose cached flag the twin did not reproduce
}

// sent is what the first pass keeps of one request.
type sent struct {
	req, id int64
	ok      bool
	lat     time.Duration
	body    []byte
}

// send issues one request and, when tracing, records the client span.
// Nothing else happens between two sends: the replays run in a second pass,
// so the traced client paces the server exactly as the untraced one does. A
// traced request reserves a block of ten span ids, laid out as replayRead
// and the batch replay in tracedChurn describe.
func (p *replayer) send(s step) sent {
	var st sent
	if p.tr != nil {
		p.req++
		st.req, st.id = p.req, p.tr.block(10)
	}
	path, body := s.q.path(), s.q.body()
	if s.ops != nil {
		path, body = "/mutate", mutateBody(s.ops)
	}
	t0 := time.Now()
	status, err := post(p.cl, p.base+path, body, &p.buf, st.req, st.id)
	t1 := time.Now()
	if p.tr != nil {
		p.tr.record(st.id, 0, st.req, "nethttp."+path[1:], t0, t1)
	}
	st.lat, st.ok = t1.Sub(t0), err == nil && status == http.StatusOK
	p.r.count(1, b2i(!st.ok))
	st.body = bytes.Clone(p.buf.Bytes())
	return st
}

// replayRead repeats one answered read layer by layer. Ids within the
// request's block: +0 client, +1 middleware, +2 service, +3 routing,
// +4 graph.path / labels.query, +5 graph.base_dist.
func (p *replayer) replayRead(q query, st sent) {
	if !st.ok {
		return
	}
	id, req := st.id, st.req
	sh := p.sh
	if q.dist {
		p.tr.time(id+2, id+1, req, "service.distance", func() { p.twin.Distance(q.src, q.dst) })
		p.tr.time(id+3, id+2, req, "routing.distance", func() { sh.router.Distance(sh.srch, q.src, q.dst) })
		if _, ok := sh.oracle.Query(q.src, q.dst); ok { // a stale oracle declines: the search above was the work
			p.tr.time(id+4, id+3, req, "labels.query", func() { sh.oracle.Query(q.src, q.dst) })
		}
		return
	}
	var rr service.RouteResponse
	if json.Unmarshal(st.body, &rr) != nil {
		p.r.count(1, 1)
		return
	}
	var res service.RouteResult
	p.tr.time(id+2, id+1, req, "service.route", func() { res, _ = p.twin.Route(routing.SchemeShortestPath, q.src, q.dst) })
	if res.Cached != rr.Cached {
		p.diverged++
	}
	if rr.Cached {
		return // a hit never reaches the kernels, in the daemon or here
	}
	p.tr.time(id+3, id+2, req, "routing.route", func() { sh.router.RouteWith(sh.srch, routing.SchemeShortestPath, q.src, q.dst) })
	sh.srch.ResetStats()
	p.tr.time(id+4, id+3, req, "graph.path", func() { sh.srch.PathTo(sh.sp, q.src, q.dst, graph.Inf) })
	p.tr.time(id+5, id+2, req, "graph.base_dist", func() { sh.srch.DijkstraTarget(sh.base, q.src, q.dst, graph.Inf) })
	p.misses++
	p.settled += sh.srch.Stats().Settled
}

// readMetrics turns the spans of the traced reads into per-layer metrics.
func (p *replayer) readMetrics() {
	self, dur := p.tr.selfTimes(), p.tr.durations()
	us := func(name string, xs []float64) {
		if len(xs) > 0 {
			p.r.setOne(name, "us", median(xs))
		}
	}
	us("nethttp.route_self_us", self["nethttp.route"])
	us("nethttp.distance_self_us", self["nethttp.distance"])
	us("service.http.route_self_us", self["service.http.route"])
	us("service.http.distance_self_us", self["service.http.distance"])
	us("service.route_self_us", self["service.route"])
	us("routing.route_us", dur["routing.route"])
	us("routing.distance_us", dur["routing.distance"])
	us("graph.path_us", dur["graph.path"])
	us("graph.base_dist_us", dur["graph.base_dist"])
	us("labels.query_us", dur["labels.query"])
	if p.misses > 0 {
		p.r.setOne("graph.settled_per_route", "count", float64(p.settled)/float64(p.misses))
	}
	if p.diverged > 0 {
		p.r.note("%d replies had a cached flag the twin service did not reproduce", p.diverged)
	}
	client := append([]float64(nil), dur["nethttp.route"]...)
	if len(client) == 0 {
		return
	}
	sort.Float64s(client)
	p99, _ := tail(client, 0.99)
	p.r.setOne("nethttp.route_p99_us", "us", p99)
	// The blocking path of a /route: the layers' own times should add up
	// to what the client saw.
	sum := median(self["nethttp.route"]) + median(self["service.http.route"]) + median(self["service.route"]) +
		median(self["routing.route"]) + median(dur["graph.path"]) + median(dur["graph.base_dist"])
	p50 := percentile(client, 0.5)
	p.r.setOne("trace.route_selfsum_ratio", "ratio", sum/p50)
	p.r.note("blocking path of /route: layer self times sum to %.1f us, traced client p50 is %.1f us", sum, p50)
}

// cacheShares reports the served service's cache and label behaviour over
// the traced phase as the change in its GET /stats counters.
func cacheShares(r *result, before, after stats) {
	cache, labels := after.hitShares(before)
	r.setOne("service.cache.hit_share", "ratio", cache)
	r.setOne("service.cache.evictions", "count", float64(after.CacheEvictions-before.CacheEvictions))
	r.setOne("labels.hit_share", "ratio", labels)
}

// routeAllocs measures what one /route costs the allocator and the wire
// when it goes straight through the service's handler onto a recorder.
func routeAllocs(r *result, svc *service.Service, qs []query) {
	h := svc.Handler()
	reqs := make([]*http.Request, len(qs))
	recs := make([]*httptest.ResponseRecorder, len(qs))
	for i, q := range qs {
		reqs[i] = httptest.NewRequest(http.MethodPost, q.path(), bytes.NewReader(q.body()))
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	bytesOut := 0
	for _, rec := range recs {
		bytesOut += rec.Body.Len()
	}
	r.setOne("service.http.route_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(qs)))
	r.setOne("service.http.route_resp_bytes", "B", float64(bytesOut)/float64(len(qs)))
}

// untraced sends a sequence to a daemon with no trace headers, one request
// at a time, and returns the median latency by kind (µs; ms for batches).
func untraced(r *result, base string, seq []step) (routeUs, mutateMs float64) {
	p := &replayer{r: r, cl: newHTTPClient(), base: base}
	var route, mutate []float64
	for _, s := range seq {
		switch st := p.send(s); {
		case s.ops != nil:
			mutate = append(mutate, float64(st.lat)/float64(time.Millisecond))
		case !s.q.dist:
			route = append(route, float64(st.lat)/float64(time.Microsecond))
		}
	}
	return median(route), median(mutate)
}

// fidelity reports traced ÷ untraced median latency of the same requests:
// what tracing costs plus how far the traced stack is from the daemon.
func fidelity(r *result, name string, traced, plain float64) {
	if plain <= 0 {
		return
	}
	r.setOne(name, "ratio", traced/plain)
	if ratio := traced / plain; ratio < 0.8 || ratio > 1.25 {
		r.note("WARNING: %s = %.2f is outside 0.8–1.25: read this run's self times with care", name, ratio)
	}
}

func tracedReads(e *env, tr *tracer, c runCfg, r *result) error {
	hot := r.Workload == wlRouteHot
	n := c.n(16384)
	if hot {
		n = c.n(4096)
	}
	sh, pts, file, err := bootLayers(e, tr, r, n, c.seed)
	if err != nil {
		return err
	}
	scale := func(k int) int {
		if c.quick {
			return k / 10
		}
		return k
	}
	var pretouch, seq []step
	if hot {
		set := hotSet(n, min(hotPairs, n/2), c.seed)
		pretouch = readSteps(set)
		seq = readSteps(take(zipfOver(set, clientRng(c.seed, 1, 0)), scale(tracedHotReads)))
	} else {
		ids := idRange(n)
		seq = readSteps(take(uniformPairs(ids, clientRng(c.seed, 1, 0), false), scale(tracedColdRoutes)))
		seq = append(seq, readSteps(take(uniformPairs(ids, clientRng(c.seed, 2, 0), true), scale(tracedColdDists)))...)
	}

	srv, err := startTracedServer(e, file, "")
	if err != nil {
		return err
	}
	twin, err := service.New(pts, svcOptions())
	if err != nil {
		return err
	}
	defer twin.Close()

	p := &replayer{tr: tr, r: r, cl: newHTTPClient(), base: srv.base, twin: twin, sh: sh}
	untraced(r, srv.base, pretouch)
	for _, s := range pretouch {
		twin.Route(routing.SchemeShortestPath, s.q.src, s.q.dst)
	}
	before, _ := getStats(srv.base)
	sends := make([]sent, len(seq))
	for i, s := range seq {
		sends[i] = p.send(s)
	}
	after, _ := getStats(srv.base)
	cacheShares(r, before, after)
	if err := srv.stop(tr); err != nil {
		return err
	}
	for i, s := range seq {
		p.replayRead(s.q, sends[i])
	}
	p.readMetrics()
	var routes []query
	for _, s := range seq {
		if !s.q.dist && len(routes) < tracedAllocReqs {
			routes = append(routes, s.q)
		}
	}
	routeAllocs(r, twin, routes)

	// The same requests, untraced, at the real thing.
	d, _, _, _, err := boot(e, pts, false, 1)
	if err != nil {
		return err
	}
	defer d.kill()
	untraced(r, d.base, pretouch)
	route, _ := untraced(r, d.base, seq)
	fidelity(r, "trace.route_p50_ratio", median(tr.durations()["nethttp.route"]), route)
	return nil
}

// durable is a service on a fresh WAL directory, built the way `topoctld
// serve -wal` builds it, with the publish hook wrapped so that every call
// into the replica/wal layers is a span and every byte and fsync is counted.
type durable struct {
	svc *service.Service
	ld  *replica.Leader
	fs  *countingFS
	// span of the twin's next append: id, parent, req (set by the replayer)
	id, parent, req atomic.Int64
}

// newDurable names its spans "wal.genesis"+suffix and "wal.append"+suffix;
// where asks which span the append being made is.
func newDurable(tr *tracer, pts []geom.Point, dir, suffix string, where func(*durable) (id, parent, req int64)) (*durable, error) {
	d := &durable{fs: &countingFS{FS: wal.OS}}
	rec, st, err := wal.Open(wal.Options{Dir: dir, FS: d.fs, Sync: wal.SyncAlways, CheckpointEvery: 64})
	if err != nil {
		return nil, err
	}
	if st != nil {
		rec.Close(nil)
		return nil, fmt.Errorf("WAL directory %s is not fresh", dir)
	}
	opts := svcOptions()
	opts.OnPublish = func(snap *service.Snapshot, applied []service.Op, touched []int) {
		t0 := time.Now()
		d.ld.OnPublish(snap, applied, touched)
		t1 := time.Now()
		id, parent, req := where(d)
		tr.record(id, parent, req, "wal.append"+suffix, t0, t1)
	}
	if d.svc, err = service.New(pts, opts); err != nil {
		rec.Close(nil)
		return nil, err
	}
	d.ld = replica.NewLeader(rec, nil)
	tr.once("wal.genesis"+suffix, func() { err = d.ld.Genesis(stretchT, radius, dim, d.svc.Snapshot()) })
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the service and abandons the log as a crash would.
func (d *durable) close() {
	d.svc.Close()
	d.ld.Abandon()
}

func tracedChurn(e *env, tr *tracer, c runCfg, r *result) error {
	n := c.n(4096)
	sh, pts, file, err := bootLayers(e, tr, r, n, c.seed)
	if err != nil {
		return err
	}
	batches := tracedBatches
	if c.quick {
		batches = 20
	}
	plan := genChurn(pts, batches, c.seed)
	reads := take(zipfAlternating(plan.readable, clientRng(c.seed, 3, 0)), batches*tracedReadsPer)
	var seq []step
	for i, ops := range plan.batches {
		seq = append(seq, step{ops: ops})
		seq = append(seq, readSteps(reads[i*tracedReadsPer:(i+1)*tracedReadsPer])...)
	}

	dirs := [2]string{}
	for i := range dirs {
		if dirs[i], err = e.dir("wal"); err != nil {
			return err
		}
	}
	srv, err := startTracedServer(e, file, dirs[0])
	if err != nil {
		return err
	}
	twin, err := newDurable(tr, pts, dirs[1], ".twin", func(d *durable) (int64, int64, int64) {
		return d.id.Load(), d.parent.Load(), d.req.Load()
	})
	if err != nil {
		return err
	}
	defer twin.close()

	p := &replayer{tr: tr, r: r, cl: newHTTPClient(), base: srv.base, twin: twin.svc, sh: sh}
	before, _ := getStats(srv.base)
	sends := make([]sent, len(seq))
	for i, s := range seq {
		sends[i] = p.send(s)
	}
	after, _ := getStats(srv.base)
	cacheShares(r, before, after)
	if err := srv.stop(tr); err != nil {
		return err
	}
	var touched, rebuilds int
	for i, s := range seq {
		if s.ops == nil {
			p.replayRead(s.q, sends[i])
			continue
		}
		// Ids within a batch's block: +0 client, +1 middleware, +2 twin
		// Service.Mutate, +3 validate, +4..+7 shadow stages, +8 twin
		// append. The served append is a root span numbered by the server:
		// it ran inside the request, and the twin's append stands in for
		// it in the tree.
		id, req := sends[i].id, sends[i].req
		twin.id.Store(id + 8)
		twin.parent.Store(id + 2)
		twin.req.Store(req)

		tr.time(id+2, id+1, req, "service.mutate", func() { twin.svc.Mutate(s.ops) })
		tr.time(id+3, id+1, req, "service.validate", func() { service.ValidateOps(s.ops) })
		tr.time(id+4, id+2, req, "dynamic.commit", func() {
			sh.eng.Begin()
			for _, op := range s.ops {
				switch op.Kind {
				case service.OpJoin:
					sh.eng.Join(op.Point)
				case service.OpLeave:
					sh.eng.Leave(op.ID)
				case service.OpMove:
					sh.eng.Move(op.ID, op.Point)
				}
			}
			sh.eng.Commit()
		})
		tr.time(id+5, id+2, req, "dynamic.export", func() { sh.pts, _, sh.base, sh.sp = sh.eng.ExportFrozen() })
		rows := sh.eng.LastExportTouched()
		touched += len(rows)
		wasStale := sh.oracle.Stats().Stale
		tr.time(id+6, id+2, req, "labels.update", func() { sh.oracle = sh.oracle.Update(sh.sp, rows) })
		if wasStale && !sh.oracle.Stats().Stale {
			rebuilds++ // only the full-rebuild branch clears staleness
		}
		tr.time(id+7, id+2, req, "routing.new_router", sh.newRouter)
	}
	p.readMetrics()

	self, dur := tr.selfTimes(), tr.durations()
	us := func(name string, xs []float64) { r.setOne(name, "us", median(xs)) }
	us("nethttp.mutate_self_us", self["nethttp.mutate"])
	us("service.http.mutate_self_us", self["service.http.mutate"])
	us("service.mutate_us", dur["service.mutate"])
	us("service.mutate_self_us", self["service.mutate"])
	us("service.validate_us", dur["service.validate"])
	us("dynamic.commit_us", dur["dynamic.commit"])
	us("dynamic.export_us", dur["dynamic.export"])
	us("labels.update_us", dur["labels.update"])
	us("routing.new_router_us", dur["routing.new_router"])
	us("wal.append_us", dur["wal.append"])
	_, hi := minMax(dur["labels.update"])
	r.setOne("labels.update_max_ms", "ms", hi/1000)
	r.setOne("labels.rebuilds", "count", float64(rebuilds))
	r.setOne("dynamic.touched_rows_per_batch", "count", float64(touched)/float64(batches))
	appends := append([]float64(nil), dur["wal.append"]...)
	sort.Float64s(appends)
	p95, _ := tail(appends, 0.95)
	r.setOne("wal.append_p95_us", "us", p95)
	secs(r, "wal.genesis_s", time.Duration(median(dur["wal.genesis"])*float64(time.Microsecond)))
	r.setOne("wal.fsyncs_per_batch", "count", tr.counts["wal.syncs"]/float64(batches))
	r.setOne("wal.bytes_per_op", "B", tr.counts["wal.bytes"]/float64(batches*batchOps))

	// The same sequence, untraced, at a durable child daemon; then what its
	// crash leaves behind is opened and restored layer by layer.
	d, _, walDir, _, err := boot(e, pts, true, 1)
	if err != nil {
		return err
	}
	route, mutate := untraced(r, d.base, seq)
	d.kill()
	fidelity(r, "trace.route_p50_ratio", median(dur["nethttp.route"]), route)
	fidelity(r, "trace.mutate_p50_ratio", median(dur["nethttp.mutate"])/1000, mutate)
	size, err := dirBytes(walDir)
	if err != nil {
		return err
	}
	r.setOne("wal.dir_bytes", "B", float64(size))
	var rec *wal.Recorder
	var st *wal.State
	secs(r, "wal.open_s", tr.once("wal.open", func() {
		rec, st, err = wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncAlways, CheckpointEvery: 64})
	}))
	if err != nil {
		return err
	}
	defer rec.Close(nil)
	if st == nil {
		return fmt.Errorf("the killed daemon's WAL directory recovered no state")
	}
	// The recovery path thaws the checkpointed graphs for the engine; that
	// is part of what a restart pays.
	secs(r, "dynamic.restore_s", tr.once("dynamic.restore", func() {
		_, err = dynamic.Restore(st.Points, st.Alive, st.Base.Thaw(), st.Spanner.Thaw(),
			dynamic.Options{T: st.T, Radius: st.Radius, Dim: st.Dim})
	}))
	return err
}

func tracedBuild(tr *tracer, c runCfg, r *result) error {
	n := c.n(8192)
	nw, err := network(n, c.seed, nil)
	if err != nil {
		return err
	}
	secs(r, "geom.points_s", tr.once("geom.points", func() {
		geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: dim, Side: ubg.DensitySide(n, dim, buildAlpha, baseDeg), Seed: c.seed})
	}))
	secs(r, "ubg.build_s", tr.once("ubg.build", func() {
		_, err = ubg.Build(nw.Points, ubg.Config{Alpha: buildAlpha, Model: ubg.ModelAll, Seed: c.seed})
	}))
	if err != nil {
		return err
	}
	// SEQ-GREEDY at the same stretch: the comparator the paper measures
	// itself against, not part of build_s.
	secs(r, "greedy.spanner_s", tr.once("greedy.spanner", func() { greedy.Spanner(nw.Graph, 1+buildEps) }))

	params, err := core.NewParams(buildEps, buildAlpha, dim)
	if err != nil {
		return err
	}
	var seq *core.Result
	secs(r, "core.build_s", tr.once("core.build", func() { seq, err = core.Build(nw.Points, nw.Graph, core.Options{Params: params}) }))
	if err != nil {
		return err
	}
	count := func(name string, v int64) { r.setOne(name, "count", float64(v)) }
	count("core.queried_edges", int64(seq.Stats.Queried))
	count("core.covered_edges", int64(seq.Stats.Covered))
	count("core.added_edges", int64(seq.Stats.Added))
	count("core.removed_edges", int64(seq.Stats.RemovedRedundant))
	count("core.phases", int64(seq.Stats.Phases))

	var dres *dist.Result
	secs(r, "dist.build_s", tr.once("dist.build", func() {
		dres, err = dist.Build(nw.Points, nw.Graph, dist.Options{Params: params, Seed: distSeed})
	}))
	if err != nil {
		return err
	}
	count("dist.rounds", int64(dres.Rounds))
	count("dist.messages", dres.Messages)
	count("dist.words", dres.Words)

	var stretch, mst float64
	secs(r, "metrics.stretch_s", tr.once("metrics.stretch", func() { stretch = metrics.Stretch(nw.Graph, seq.Spanner) }))
	secs(r, "graph.mst_s", tr.once("graph.mst", func() { mst = graph.MSTWeightOf(nw.Graph) }))
	r.setOne("core.stretch", "ratio", stretch)
	count("core.max_degree", int64(metrics.Degrees(seq.Spanner).Max))
	r.setOne("core.weight_over_mst", "ratio", seq.Spanner.TotalWeight()/mst)
	var v verifier
	v.add(checkBuild(nw.Graph, seq.Spanner, params.T, mst))
	v.add(checkBuild(nw.Graph, dres.Spanner, params.T, mst))
	r.verified(&v)
	return nil
}
