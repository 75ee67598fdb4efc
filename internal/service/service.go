// Package service is the concurrent topology query layer: a long-lived
// Service owns a dynamic.Engine (the churn-maintained t-spanner) and
// serves route, neighborhood, and statistics queries against RCU-style
// immutable snapshots while mutations stream in.
//
// The concurrency design is single-writer / wait-free readers:
//
//   - All mutations funnel through one writer goroutine that owns the
//     engine outright. A mutation batch is applied under the engine's
//     Begin/Commit coalescing, then the writer freezes the engine state
//     (dynamic.Engine.ExportFrozen) into a fresh Snapshot — immutable CSR
//     graphs, positions, router, and a brand-new LRU route cache — and
//     publishes it with one atomic pointer store. The freeze is
//     delta-aware: only adjacency rows the batch touched are rebuilt,
//     everything else is shared with the previous snapshot, so publish
//     cost tracks the repair, not the topology size.
//   - Readers load the current snapshot with an atomic pointer read and
//     never take a lock shared with the writer. A reader holding an old
//     snapshot keeps getting internally consistent answers from the
//     version it loaded; the garbage collector retires old snapshots when
//     the last reader drops them.
//   - Because the route cache lives inside the snapshot, a topology swap
//     invalidates the whole cache by construction — there is no
//     invalidation protocol, and a cached route can never mix versions.
//
// The HTTP surface over this API lives in http.go; cmd/topoctld is the
// daemon binary.
package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"topoctl/internal/analyze"
	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/labels"
	"topoctl/internal/routing"
)

// ErrUnknownNode reports a query or mutation naming a slot that holds no
// live node (never joined, or departed).
var ErrUnknownNode = errors.New("service: unknown or departed node")

// ErrClosed reports an operation on a closed service.
var ErrClosed = errors.New("service: closed")

// ErrReadOnly reports a mutation sent to a follower: replicas serve reads
// and apply the leader's frame stream, never local writes.
var ErrReadOnly = errors.New("service: read-only follower; send mutations to the leader")

// ErrNotReady reports a query before the first snapshot exists (a
// follower that has not applied a frame yet).
var ErrNotReady = errors.New("service: not ready, no snapshot yet")

// Options configures a Service.
type Options struct {
	// T is the spanner stretch bound (> 1; default 1.5).
	T float64
	// Radius is the connectivity radius of the maintained base graph
	// (default 1).
	Radius float64
	// Dim is the embedding dimension, needed only when the service starts
	// with no nodes (default 2).
	Dim int
	// CacheSize bounds the per-snapshot route cache (default 8192 entries;
	// <0 disables growth past the minimum).
	CacheSize int
	// Labels enables the hub-label distance oracle (internal/labels): the
	// writer builds exact per-vertex label sets at boot and at every
	// rebuild horizon, and /distance queries answer from an
	// allocation-free label intersection instead of an A* search, falling
	// back to the search when the oracle cannot certify (after any
	// graph-changing commit, until its rebuild horizon). Off by default — a full label build costs 0.29 s at
	// n=4096 and 4.0 s at n=16384 (≈90 % of a boot at either size), which
	// embedded/test users may not want.
	Labels bool
	// LabelsMaxN caps the deployment size the oracle is built for: label
	// construction grows roughly quadratically in the vertex count (0.29 s
	// at n=4096, 4.0 s at n=16384; 1744 B/vtx at n=4096), so a
	// million-vertex boot must not sink into it silently. Above the cap
	// Labels is ignored and /distance falls back to the search core. Zero
	// means DefaultLabelsMaxN; negative removes the cap.
	LabelsMaxN int
	// Seed offsets the /stats stretch probe's seed: the snapshot at version
	// v probes with seed Seed+v, the sample
	// /analyze/divergence?seed=<Seed+v> draws. A leader and its followers
	// report the same estimate for a version only under the same Seed; the
	// daemon leaves it at 0 on both.
	Seed int64
	// InitialVersion stamps the first published snapshot (default 1). A
	// daemon recovering from a WAL passes the recovered epoch so versions
	// continue the pre-crash sequence instead of restarting at 1.
	InitialVersion uint64
	// OnPublish, when set, runs on the writer goroutine immediately after
	// each mutation batch publishes its snapshot — the WAL append hook.
	// applied holds the ops that succeeded (join IDs resolved) in batch
	// order; touched lists the vertices whose adjacency rows the batch
	// changed, sorted, and is only valid for the duration of the call.
	// The hook runs before the batch's Mutate reply is released, so a
	// durable-WAL hook makes every acknowledged mutation durable.
	OnPublish func(snap *Snapshot, applied []Op, touched []int)
}

func (o *Options) normalize() {
	if o.T == 0 {
		o.T = 1.5
	}
	if o.Radius == 0 {
		o.Radius = 1
	}
	if o.CacheSize == 0 {
		o.CacheSize = 8192
	}
}

// Op is one topology mutation. Kind selects which fields matter: a join
// needs Point, a leave needs ID, a move needs both.
type Op struct {
	Kind  string     `json:"op"` // "join" | "leave" | "move"
	ID    int        `json:"id,omitempty"`
	Point geom.Point `json:"point,omitempty"`
}

// Op kinds.
const (
	OpJoin  = "join"
	OpLeave = "leave"
	OpMove  = "move"
)

// OpResult reports one op of a mutation batch: the node id it concerned
// (the assigned id, for joins) and the error, if it failed.
type OpResult struct {
	ID  int    `json:"id"`
	Err string `json:"error,omitempty"`
}

// MutateResult reports an applied mutation batch.
type MutateResult struct {
	// Version is the topology version after the batch (unchanged when no
	// op applied).
	Version uint64 `json:"version"`
	// Applied counts ops that succeeded; Results holds per-op outcomes in
	// batch order.
	Applied int        `json:"applied"`
	Results []OpResult `json:"results"`
}

type mutateReq struct {
	ops   []Op
	reply chan *MutateResult
}

// counters are service-lifetime monotonic counters, updated with atomics
// from reader goroutines and the writer.
type counters struct {
	routes     atomic.Uint64
	delivered  atomic.Uint64
	cacheHits  atomic.Uint64
	cacheMiss  atomic.Uint64
	cacheEvict atomic.Uint64
	mutOps     atomic.Uint64
	mutBatches atomic.Uint64
	labelHits  atomic.Uint64
	labelFalls atomic.Uint64
	analyze    [analyzeEndpoints]analyzeCounter
}

// Service serves topology queries over atomically swapped snapshots while
// a single writer goroutine applies mutation batches. All exported methods
// are safe for concurrent use.
type Service struct {
	opts     Options
	snap     atomic.Pointer[Snapshot]
	ctr      counters
	start    time.Time
	ready    atomic.Bool
	follower bool
	repl     atomic.Pointer[ReplicaStatus]

	// oracle is the current hub-label distance oracle (nil when disabled
	// or on followers). It is owned by the writer: publish() builds it or
	// derives its successor before each snapshot swap, and readers only
	// ever see it through the immutable snapshot they loaded.
	oracle *labels.Oracle

	reqs      chan *mutateReq
	stop      chan struct{}
	writerRet chan struct{}
	closeOnce sync.Once
}

// New starts a service over the given initial deployment (point set may be
// empty, then Options.Dim applies). The initial spanner build is
// synchronous; the returned service is immediately ready to serve.
func New(points []geom.Point, opts Options) (*Service, error) {
	opts.normalize()
	// The deployment's own dimension always wins; Options.Dim only matters
	// for a service that starts empty.
	if len(points) > 0 {
		opts.Dim = points[0].Dim()
	} else if opts.Dim == 0 {
		opts.Dim = 2
	}
	dopts := dynamic.Options{
		T:      opts.T,
		Radius: opts.Radius,
		Dim:    opts.Dim,
	}
	eng, err := dynamic.New(points, dopts)
	if err != nil {
		return nil, err
	}
	return NewFromEngine(eng, opts), nil
}

// DefaultLabelsMaxN is the deployment size above which Options.Labels is
// ignored unless LabelsMaxN raises the cap. Past ~16k vertices the first
// label build costs tens of seconds and its slabs rival the graph itself.
const DefaultLabelsMaxN = 16384

// NewFromEngine starts a service over an existing engine — the WAL
// recovery path, where the engine was restored from a checkpoint plus a
// replayed log tail rather than built from scratch. The engine's own T,
// Radius, and dimension override the corresponding options; the caller
// passes the recovered epoch as Options.InitialVersion so published
// versions continue the pre-crash sequence. The service owns the engine
// from here on.
func NewFromEngine(eng *dynamic.Engine, opts Options) *Service {
	opts.normalize()
	eopts := eng.Options()
	opts.T, opts.Radius, opts.Dim = eopts.T, eopts.Radius, eng.Dim()
	if opts.Labels {
		max := opts.LabelsMaxN
		if max == 0 {
			max = DefaultLabelsMaxN
		}
		if max > 0 && eng.N() > max {
			opts.Labels = false
		}
	}
	s := &Service{
		opts:      opts,
		start:     time.Now(),
		reqs:      make(chan *mutateReq),
		stop:      make(chan struct{}),
		writerRet: make(chan struct{}),
	}
	s.publish(eng)
	s.ready.Store(true)
	go s.writer(eng)
	return s
}

// NewFollower starts a read-only service with no engine and no writer:
// snapshots arrive from the leader's frame stream via PublishFrozen
// (internal/replica drives this). Mutations are rejected with
// ErrReadOnly, and the service reports not-ready until the first
// snapshot is published.
func NewFollower(opts Options) *Service {
	opts.normalize()
	if opts.Dim == 0 {
		opts.Dim = 2
	}
	s := &Service{
		opts:     opts,
		follower: true,
		start:    time.Now(),
		stop:     make(chan struct{}),
	}
	return s
}

// PublishFrozen installs an externally built topology version — a
// follower applying the leader's delta frames. points, alive, and the
// graphs must be immutable from here on (the WAL state machine
// guarantees this: every Apply builds fresh metadata slices and frozen
// successors). The first publish marks the follower ready. Followers carry
// no hub-label oracle — /distance still answers exactly, via the search
// fallback.
func (s *Service) PublishFrozen(version uint64, points []geom.Point, alive []bool, live int, base, sp *graph.Frozen) error {
	if _, err := s.install(version, points, alive, live, base, sp); err != nil {
		return err
	}
	s.ready.Store(true)
	return nil
}

// Ready reports whether the service has a snapshot to serve: immediately
// for leaders (construction is synchronous), after the first applied
// frame for followers. GET /readyz is this, as an HTTP status.
func (s *Service) Ready() bool { return s.ready.Load() }

// ReplicaStatus describes a follower's replication link, for /healthz
// and /stats. The zero value means "leader".
type ReplicaStatus struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// Connected reports a live frame stream from the leader.
	Connected bool `json:"connected"`
	// Epoch is the last applied epoch; LeaderEpoch the newest epoch the
	// follower has heard of (equal when caught up). Lag is the difference.
	Epoch       uint64 `json:"epoch"`
	LeaderEpoch uint64 `json:"leader_epoch"`
	Lag         uint64 `json:"lag"`
	// LastFrameAgeSeconds is the time since the last applied frame (-1
	// before the first frame).
	LastFrameAgeSeconds float64 `json:"last_frame_age_seconds"`
	// Reconnects counts stream re-establishments (drops + backoff).
	Reconnects uint64 `json:"reconnects"`
}

// SetReplicaStatus publishes the replication-link status (the replica
// client updates it as frames apply and connections drop).
func (s *Service) SetReplicaStatus(st ReplicaStatus) { s.repl.Store(&st) }

// replicaStatus returns the current status, nil for leaders.
func (s *Service) replicaStatus() *ReplicaStatus {
	if !s.follower {
		return nil
	}
	if st := s.repl.Load(); st != nil {
		return st
	}
	return &ReplicaStatus{Role: "follower"}
}

// Close stops the writer goroutine. In-flight Mutate calls receive
// ErrClosed; queries keep working against the last published snapshot.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		if !s.follower {
			<-s.writerRet
		}
	})
}

// Snapshot returns the current topology snapshot. The returned value is
// immutable and remains valid (and internally consistent) indefinitely;
// hold it across related queries to get one-version semantics.
func (s *Service) Snapshot() *Snapshot { return s.snap.Load() }

// Options returns the options the service runs under: defaults applied
// and, on a leader, T, Radius and Dim as its engine has them.
func (s *Service) Options() Options { return s.opts }

// Route answers one route query against the current snapshot. Use
// Snapshot().Route directly when several queries must observe the same
// version; both paths feed the same serving counters.
func (s *Service) Route(scheme routing.Scheme, src, dst int) (RouteResult, error) {
	snap := s.Snapshot()
	if snap == nil {
		return RouteResult{}, ErrNotReady
	}
	return snap.Route(scheme, src, dst)
}

// Distance answers one exact distance query against the current snapshot
// (labels when enabled and certifiable, search fallback otherwise). Use
// Snapshot().Distance directly for one-version semantics across queries.
func (s *Service) Distance(src, dst int) (DistanceResult, error) {
	snap := s.Snapshot()
	if snap == nil {
		return DistanceResult{}, ErrNotReady
	}
	return snap.Distance(src, dst)
}

// Mutate applies a batch of topology mutations through the writer
// goroutine and returns once the resulting snapshot is published. Ops are
// applied best-effort in order: a failed op (e.g. leave of a departed
// node) is reported in its OpResult without aborting the batch.
func (s *Service) Mutate(ops []Op) (*MutateResult, error) {
	if s.follower {
		return nil, ErrReadOnly
	}
	req := &mutateReq{ops: ops, reply: make(chan *MutateResult, 1)}
	select {
	case s.reqs <- req:
		return <-req.reply, nil
	case <-s.stop:
		return nil, ErrClosed
	}
}

// writer is the single goroutine that owns the engine after New returns.
func (s *Service) writer(eng *dynamic.Engine) {
	defer close(s.writerRet)
	for {
		select {
		case req := <-s.reqs:
			req.reply <- s.apply(eng, req.ops)
		case <-s.stop:
			return
		}
	}
}

// apply runs one mutation batch against the engine and publishes the
// successor snapshot. Multi-op batches go through Begin/Commit so the
// engine coalesces repair into one pass.
func (s *Service) apply(eng *dynamic.Engine, ops []Op) *MutateResult {
	res := &MutateResult{Results: make([]OpResult, len(ops))}
	if len(ops) > 1 {
		eng.Begin()
	}
	for i, op := range ops {
		r := &res.Results[i]
		r.ID = op.ID
		var err error
		switch op.Kind {
		case OpJoin:
			r.ID, err = eng.Join(op.Point)
		case OpLeave:
			err = eng.Leave(op.ID)
		case OpMove:
			err = eng.Move(op.ID, op.Point)
		default:
			err = fmt.Errorf("service: unknown op %q", op.Kind)
		}
		if err != nil {
			r.Err = err.Error()
		} else {
			res.Applied++
		}
	}
	if len(ops) > 1 {
		eng.Commit()
	}
	s.ctr.mutBatches.Add(1)
	s.ctr.mutOps.Add(uint64(res.Applied))
	if res.Applied == 0 {
		res.Version = s.Snapshot().Version
		return res
	}
	snap := s.publish(eng)
	res.Version = snap.Version
	if s.opts.OnPublish != nil {
		applied := make([]Op, 0, res.Applied)
		for i, op := range ops {
			if res.Results[i].Err == "" {
				op.ID = res.Results[i].ID // joins: the engine-assigned slot
				applied = append(applied, op)
			}
		}
		s.opts.OnPublish(snap, applied, eng.LastExportTouched())
	}
	return res
}

// publish freezes the engine state into a fresh snapshot and swaps it in.
// The export is delta-aware: only adjacency rows the batch touched are
// re-frozen, everything else is shared with the previous snapshot. Called
// from New (before the writer starts) and then only from the writer
// goroutine.
func (s *Service) publish(eng *dynamic.Engine) *Snapshot {
	points, alive, base, sp := eng.ExportFrozen()
	version := s.opts.InitialVersion
	if version == 0 {
		version = 1
	}
	if old := s.snap.Load(); old != nil {
		version = old.Version + 1
	}
	if s.opts.Labels {
		// Derive the hub-label oracle from the same touched-row delta the
		// frozen export consumed: an unchanged graph keeps it, any change
		// leaves it stale (queries fall back to search) until its rebuild
		// horizon rebuilds it on this snapshot.
		if s.oracle == nil {
			s.oracle = labels.Build(sp, labels.Options{})
		} else {
			s.oracle = s.oracle.Update(sp, eng.LastExportTouched())
		}
	}
	snap, err := s.install(version, points, alive, eng.N(), base, sp)
	if err != nil {
		// The router constructor only fails on a length mismatch, which
		// ExportFrozen rules out (slot-indexed points and graphs share
		// capacity).
		panic(err)
	}
	return snap
}

// install builds the snapshot for one topology version and swaps it in:
// the single constructor behind the leader's publish and a follower's
// PublishFrozen. The current label oracle (nil on followers and when
// labels are off) is attached to the snapshot and its router. Every
// topology a service serves is Euclidean-weighted (the leader's dynamic
// engine has no other metric; followers apply the leader's rows), so the
// router is declared Euclidean.
func (s *Service) install(version uint64, points []geom.Point, alive []bool, live int, base, sp *graph.Frozen) (*Snapshot, error) {
	router, err := routing.NewRouter(sp, points)
	if err != nil {
		return nil, err
	}
	router.SetEuclidean()
	if s.oracle != nil {
		router.SetDistanceOracle(s.oracle)
	}
	snap := &Snapshot{
		Version: version,
		T:       s.opts.T,
		Points:  points,
		Alive:   alive,
		Base:    base,
		Spanner: sp,
		router:  router,
		cache:   newRouteCache(s.opts.CacheSize, &s.ctr),
		ctr:     &s.ctr,
		live:    live,
		seed:    s.opts.Seed,
		oracle:  s.oracle,
	}
	snap.bboxLo, snap.bboxHi = bbox(points, s.opts.Dim)
	s.snap.Store(snap)
	return snap, nil
}

// bbox computes the axis-aligned bounding box of the live points (zeros
// when the deployment is empty).
func bbox(points []geom.Point, dim int) (lo, hi geom.Point) {
	lo, hi = make(geom.Point, dim), make(geom.Point, dim)
	first := true
	for _, p := range points {
		if p == nil {
			continue
		}
		for i := 0; i < dim && i < len(p); i++ {
			if first || p[i] < lo[i] {
				lo[i] = p[i]
			}
			if first || p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
		first = false
	}
	return lo, hi
}

// Stats is the service-level statistics document served at /stats.
type Stats struct {
	Version uint64 `json:"version"`
	// Nodes is the live node count, Slots the allocated id space (route
	// and neighbor queries accept ids in [0, Slots)).
	Nodes int `json:"nodes"`
	Slots int `json:"slots"`
	// BaseEdges / SpannerEdges / SpannerWeight / MaxDegree describe the
	// current topology.
	BaseEdges     int     `json:"base_edges"`
	SpannerEdges  int     `json:"spanner_edges"`
	SpannerWeight float64 `json:"spanner_weight"`
	MaxDegree     int     `json:"max_degree"`
	// StretchBound is the configured t; StretchEstimate the worst stretch
	// the snapshot's stretch probe observed over a 256-edge sample of base
	// edges (exact when StretchExact; -1 when a probed base edge had no
	// spanner path at all, i.e. the spanner is disconnected).
	StretchBound    float64 `json:"stretch_bound"`
	StretchEstimate float64 `json:"stretch_estimate"`
	StretchExact    bool    `json:"stretch_exact"`
	// StretchSampled is the number of base edges the probe checked;
	// StretchViolationBound the fraction of base edges that may exceed the
	// estimate, with confidence StretchConfidence (zero when
	// StretchExact).
	StretchSampled        int     `json:"stretch_sampled,omitempty"`
	StretchViolationBound float64 `json:"stretch_violation_bound,omitempty"`
	StretchConfidence     float64 `json:"stretch_confidence,omitempty"`
	// BBoxLo / BBoxHi bound the live deployment (load generators draw
	// join/move targets inside this box).
	BBoxLo geom.Point `json:"bbox_lo"`
	BBoxHi geom.Point `json:"bbox_hi"`
	// Serving counters (service lifetime).
	Routes         uint64  `json:"routes"`
	Delivered      uint64  `json:"delivered"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheEvictions uint64  `json:"cache_evictions"`
	CacheEntries   int     `json:"cache_entries"`
	MutationOps    uint64  `json:"mutation_ops"`
	MutationBatch  uint64  `json:"mutation_batches"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	// Hub-label distance oracle state (all zero when Options.Labels is
	// off). LabelHits counts /distance answers served from labels,
	// LabelFallbacks the ones that fell back to a search (oracle stale or
	// absent); LabelEntries / LabelBytesPerVertex size the current label
	// sets; LabelStale reports fallback mode pending rebuild.
	LabelsEnabled       bool    `json:"labels_enabled"`
	LabelHits           uint64  `json:"label_hits"`
	LabelFallbacks      uint64  `json:"label_fallbacks"`
	LabelEntries        int     `json:"label_entries"`
	LabelBytesPerVertex float64 `json:"label_bytes_per_vertex"`
	LabelStale          bool    `json:"label_stale"`
	// Analyze records the /analyze family per endpoint: request count and
	// worst observed duration (service lifetime, like the other counters).
	Analyze map[string]AnalyzeEndpointStats `json:"analyze"`
	// Role is "leader" or "follower"; Ready mirrors GET /readyz. Replica
	// carries the replication-link status on followers (nil on leaders).
	Role    string         `json:"role"`
	Ready   bool           `json:"ready"`
	Replica *ReplicaStatus `json:"replica,omitempty"`
}

// Stats assembles the statistics document for the current snapshot.
func (s *Service) Stats() Stats {
	role := "leader"
	if s.follower {
		role = "follower"
	}
	snap := s.Snapshot()
	if snap == nil {
		// A follower that has not applied its first frame yet has nothing
		// to describe beyond its own serving state.
		return Stats{
			Analyze:       s.ctr.analyzeStats(),
			Role:          role,
			Ready:         s.Ready(),
			Replica:       s.replicaStatus(),
			UptimeSeconds: time.Since(s.start).Seconds(),
		}
	}
	probe := snap.stretchProbe()
	est, disconnected := probe.Worst()
	if disconnected > 0 {
		est = -1 // flags a probed edge with no spanner path
	}
	var lst labels.Stats
	if snap.oracle != nil {
		lst = snap.oracle.Stats()
	}
	return Stats{
		Version:               snap.Version,
		Nodes:                 snap.live,
		Slots:                 len(snap.Alive),
		BaseEdges:             snap.Base.M(),
		SpannerEdges:          snap.Spanner.M(),
		SpannerWeight:         snap.Spanner.TotalWeight(),
		MaxDegree:             snap.Spanner.MaxDegree(),
		StretchBound:          snap.T,
		StretchEstimate:       est,
		StretchExact:          probe.Exact,
		StretchSampled:        len(probe.Checked),
		StretchViolationBound: probe.ViolationBound(),
		StretchConfidence:     analyze.ProbeConfidence,
		BBoxLo:                snap.bboxLo,
		BBoxHi:                snap.bboxHi,
		Routes:                s.ctr.routes.Load(),
		Delivered:             s.ctr.delivered.Load(),
		CacheHits:             s.ctr.cacheHits.Load(),
		CacheMisses:           s.ctr.cacheMiss.Load(),
		CacheEvictions:        s.ctr.cacheEvict.Load(),
		CacheEntries:          snap.cache.len(),
		MutationOps:           s.ctr.mutOps.Load(),
		MutationBatch:         s.ctr.mutBatches.Load(),
		UptimeSeconds:         time.Since(s.start).Seconds(),
		LabelsEnabled:         snap.oracle != nil,
		LabelHits:             s.ctr.labelHits.Load(),
		LabelFallbacks:        s.ctr.labelFalls.Load(),
		LabelEntries:          lst.Entries,
		LabelBytesPerVertex:   lst.BytesPerVertex,
		LabelStale:            lst.Stale,
		Analyze:               s.ctr.analyzeStats(),
		Role:                  role,
		Ready:                 s.Ready(),
		Replica:               s.replicaStatus(),
	}
}
