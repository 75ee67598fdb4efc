package replica

// Test-only methods, declared in package replica so that the external
// replica_test package can call them too.

import (
	"time"

	"topoctl/internal/wal"
)

// SetTestHooks shortens the reconnect backoff to [backoffMin, backoffMax]
// and calls onApply with the state after every applied epoch.
func (o *Options) SetTestHooks(backoffMin, backoffMax time.Duration, onApply func(st *wal.State)) {
	o.backoffMin, o.backoffMax, o.onApply = backoffMin, backoffMax, onApply
}

// Recorder exposes the leader's recorder, so tests can serve its
// replication endpoints through their own handlers and read its head.
func (l *Leader) Recorder() *wal.Recorder { return l.rec }
