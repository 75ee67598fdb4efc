package replica

import (
	"fmt"
	"net/http"
	"sync"

	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/service"
	"topoctl/internal/wal"
)

// Leader binds a leader service's publish stream to a WAL recorder: its
// OnPublish hook seals the delta frame of every committed batch against
// the recorder's (epoch, chain) and appends it. Because the hook runs on
// the service's writer goroutine before the batch's Mutate reply is
// released, a SyncAlways recorder makes every acknowledged mutation
// durable.
//
// The Leader keeps no topology of its own. The state it hands the
// recorder for checkpoints wraps the published snapshot, whose points,
// liveness and frozen graphs are immutable, so the checkpoint encodes
// exactly what the leader served at that epoch, and building it is O(1).
type Leader struct {
	rec *wal.Recorder

	mu  sync.Mutex
	st  *wal.State // the state at the log's head; nil before genesis
	err error
}

// NewLeader wraps a recorder. recovered is the state at the log's head,
// which no engine may mutate — nil for a fresh directory, in which case
// Genesis must run (with the service's first snapshot) before the first
// mutation. OpenLeader covers both cases.
func NewLeader(rec *wal.Recorder, recovered *wal.State) *Leader {
	return &Leader{rec: rec, st: recovered}
}

// served wraps snap as the wal.State at its version, with hdr's chain
// value and engine options. It copies nothing: snapshots are immutable.
func served(snap *service.Snapshot, hdr *wal.State) *wal.State {
	return &wal.State{
		Epoch: snap.Version, Chain: hdr.Chain, T: hdr.T, Radius: hdr.Radius, Dim: hdr.Dim,
		Points: snap.Points, Alive: snap.Alive, Live: snap.Live(),
		Base: snap.Base, Spanner: snap.Spanner,
	}
}

// Genesis initializes a fresh log from the initial published snapshot.
func (l *Leader) Genesis(t, radius float64, dim int, snap *service.Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.st != nil {
		return fmt.Errorf("replica: genesis over an existing state (epoch %d)", l.st.Epoch)
	}
	st := served(snap, &wal.State{T: t, Radius: radius, Dim: dim})
	if err := l.rec.Bootstrap(st); err != nil {
		return err
	}
	l.st = st
	return nil
}

// opKinds maps a service op kind to its frame encoding.
var opKinds = map[string]wal.OpKind{service.OpJoin: wal.OpJoin, service.OpLeave: wal.OpLeave, service.OpMove: wal.OpMove}

// OnPublish is the service publish hook: it frames and appends one
// committed batch. On a WAL failure (disk gone, wedged filesystem) the
// leader keeps serving but the log stops advancing; the error is latched
// and surfaced by Err, and every later publish is dropped — a follower
// re-bootstrapping will resume from the last durable epoch. A caller that
// promises durability checks Err after each call and stops on failure.
func (l *Leader) OnPublish(snap *service.Snapshot, applied []service.Op, touched []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if l.st == nil {
		l.err = fmt.Errorf("replica: publish of version %d before genesis", snap.Version)
		return
	}
	// Append rejects a version that does not follow the log's epoch.
	_, chain := l.rec.Epoch()
	ops := make([]wal.Op, len(applied))
	for i, op := range applied {
		ops[i] = wal.Op{Kind: opKinds[op.Kind], ID: int32(op.ID), Point: op.Point}
	}
	f := wal.BuildFrame(snap.Version, chain, ops, touched,
		snap.Points, snap.Alive, snap.Live(), snap.Base, snap.Spanner)
	st := served(snap, l.st)
	st.Chain = f.Chain
	if err := l.rec.Append(f, st); err != nil {
		l.err = err
		return
	}
	l.st = st
}

// Err returns the first WAL pipeline failure, nil while healthy.
func (l *Leader) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// State returns the state at the log's head (nil before genesis): the
// last snapshot the log recorded, stamped with its epoch and chain. It is
// read-only.
func (l *Leader) State() *wal.State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// Handler serves h with the log's replication endpoints, GET
// /wal/checkpoint and GET /wal/stream, mounted beside it.
func (l *Leader) Handler(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("GET /wal/checkpoint", l.rec.HandleCheckpoint)
	mux.HandleFunc("GET /wal/stream", l.rec.HandleStream)
	return mux
}

// Close writes the final checkpoint and closes the recorder. Call after
// the service is closed so no publish races the final checkpoint.
func (l *Leader) Close() error {
	return l.rec.Close(l.State())
}

// Abandon closes the recorder without the final checkpoint, leaving the
// directory exactly as an uncontrolled crash would: recovery must replay
// the log tail. Crash drills and the examples use it; production
// shutdown wants Close.
func (l *Leader) Abandon() error {
	return l.rec.Close(nil)
}

// LeaderConfig configures OpenLeader.
type LeaderConfig struct {
	// WAL locates and tunes the log.
	WAL wal.Options
	// Service configures the leader service; a recovered log's T, Radius
	// and dimension override its own. Its OnPublish, if set, runs after
	// the leader's, once the batch is logged or Err says why not.
	Service service.Options
	// Points returns the deployment of a fresh log; recovery never calls it.
	Points func() ([]geom.Point, error)
	// Logf, if set, reports whether the log was recovered or bootstrapped.
	Logf func(format string, args ...any)
}

// OpenLeader boots a durable leader: it opens the WAL, then either
// restores the engine from the recovered state, continuing its version
// sequence, or builds a fresh service from Points and writes the genesis
// checkpoint under the service's effective options. On error nothing is
// left open.
func OpenLeader(cfg LeaderConfig) (*service.Service, *Leader, error) {
	rec, recovered, err := wal.Open(cfg.WAL)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*service.Service, *Leader, error) {
		rec.Close(nil)
		return nil, nil, err
	}
	ld := NewLeader(rec, nil)
	opts, next := cfg.Service, cfg.Service.OnPublish
	opts.OnPublish = func(snap *service.Snapshot, applied []service.Op, touched []int) {
		ld.OnPublish(snap, applied, touched)
		if next != nil {
			next(snap, applied, touched)
		}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if recovered != nil {
		// Nothing else keeps the recovered state, so the engine takes its
		// slices, and the leader's state wraps the first published snapshot.
		eng, err := dynamic.Restore(recovered.Points, recovered.Alive, recovered.Base.Thaw(), recovered.Spanner.Thaw(),
			dynamic.Options{T: recovered.T, Radius: recovered.Radius, Dim: recovered.Dim})
		if err != nil {
			return fail(fmt.Errorf("wal recovery: %w", err))
		}
		opts.InitialVersion = recovered.Epoch
		svc := service.NewFromEngine(eng, opts)
		ld.st = served(svc.Snapshot(), recovered)
		logf("recovered epoch %d from %s (%d live nodes)", recovered.Epoch, cfg.WAL.Dir, recovered.Live)
		return svc, ld, nil
	}
	pts, err := cfg.Points()
	if err != nil {
		return fail(err)
	}
	svc, err := service.New(pts, opts)
	if err != nil {
		return fail(err)
	}
	eff := svc.Options()
	if err := ld.Genesis(eff.T, eff.Radius, eff.Dim, svc.Snapshot()); err != nil {
		svc.Close()
		return fail(err)
	}
	logf("bootstrapped WAL in %s at epoch %d", cfg.WAL.Dir, svc.Snapshot().Version)
	return svc, ld, nil
}
