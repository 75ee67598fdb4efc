package replica

import (
	"fmt"
	"sync"

	"topoctl/internal/service"
	"topoctl/internal/wal"
)

// Leader binds a leader service's publish stream to a WAL recorder: its
// OnPublish hook builds the sealed delta frame for every committed batch
// and appends it. Because the hook runs on the service's writer goroutine
// before the batch's Mutate reply is released, a SyncAlways recorder
// makes every acknowledged mutation durable.
//
// The Leader maintains a shadow wal.State advanced through the very same
// State.Apply that followers and recovery run — so if the frame pipeline
// ever diverged from the served topology, the leader's own shadow state
// would diverge identically and the differential tests would catch it.
type Leader struct {
	rec *wal.Recorder

	mu  sync.Mutex
	st  *wal.State
	err error
}

// NewLeader wraps a recorder. recovered is the state wal.Open returned —
// nil for a fresh directory, in which case Genesis must run (with the
// service's first snapshot) before the first mutation.
func NewLeader(rec *wal.Recorder, recovered *wal.State) *Leader {
	return &Leader{rec: rec, st: recovered}
}

// Genesis initializes a fresh log from the initial published snapshot.
func (l *Leader) Genesis(t, radius float64, dim int, snap *service.Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.st != nil {
		return fmt.Errorf("replica: genesis over an existing state (epoch %d)", l.st.Epoch)
	}
	st := &wal.State{
		Epoch: snap.Version, T: t, Radius: radius, Dim: dim,
		Points: snap.Points, Alive: snap.Alive, Live: snap.Live(),
		Base: snap.Base, Spanner: snap.Spanner,
	}
	if err := l.rec.Bootstrap(st); err != nil {
		return err
	}
	l.st = st
	return nil
}

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
	if snap.Version != l.st.Epoch+1 {
		l.err = fmt.Errorf("replica: publish version %d does not follow WAL epoch %d", snap.Version, l.st.Epoch)
		return
	}
	ops := make([]wal.Op, len(applied))
	for i, op := range applied {
		ops[i] = wal.Op{ID: int32(op.ID), Point: op.Point}
		switch op.Kind {
		case service.OpJoin:
			ops[i].Kind = wal.OpJoin
		case service.OpLeave:
			ops[i].Kind = wal.OpLeave
		case service.OpMove:
			ops[i].Kind = wal.OpMove
		}
	}
	f := wal.BuildFrame(snap.Version, l.st.Chain, ops, touched,
		snap.Points, snap.Alive, snap.Live(), snap.Base, snap.Spanner)
	if err := l.st.Apply(f); err != nil {
		l.err = fmt.Errorf("replica: shadow state rejected own frame: %w", err)
		return
	}
	if err := l.rec.Append(f, l.st); err != nil {
		l.err = err
	}
}

// Err returns the first WAL pipeline failure, nil while healthy.
func (l *Leader) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// State returns the shadow state (nil before genesis). The caller must
// treat it as read-only; it is safe to pass to Recorder.Close, which is
// the shutdown sequence: svc.Close(), then leader.Close().
func (l *Leader) State() *wal.State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// Recorder exposes the underlying recorder so callers can mount its
// replication endpoints (HandleCheckpoint, HandleStream) next to the
// service handler.
func (l *Leader) Recorder() *wal.Recorder { return l.rec }

// Close writes the final checkpoint and closes the recorder. Call after
// the service is closed so no publish races the final checkpoint.
func (l *Leader) Close() error {
	l.mu.Lock()
	st := l.st
	l.mu.Unlock()
	return l.rec.Close(st)
}

// Abandon closes the recorder without the final checkpoint, leaving the
// directory exactly as an uncontrolled crash would: recovery must replay
// the log tail. Crash drills and the examples use it; production
// shutdown wants Close.
func (l *Leader) Abandon() error {
	return l.rec.Close(nil)
}
