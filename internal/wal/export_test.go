package wal

// Test-only methods, declared in package wal so that the external wal_test
// package can call them too.

import "fmt"

// Checkpoint forces a full-snapshot checkpoint of st and rotates the log.
func (r *Recorder) Checkpoint(st *State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("wal: checkpoint on closed recorder")
	}
	return r.checkpointLocked(st)
}
