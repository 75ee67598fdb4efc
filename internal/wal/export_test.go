package wal

// Test-only methods, declared in package wal so that the external wal_test
// package can call them too.

import (
	"fmt"

	"topoctl/internal/geom"
)

// Checkpoint forces a full-snapshot checkpoint of st and rotates the log.
func (r *Recorder) Checkpoint(st *State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("wal: checkpoint on closed recorder")
	}
	return r.checkpointLocked(st)
}

// Clone returns an independent copy sharing only the immutable frozen
// graphs (per-slot points are treated as immutable everywhere), so a test
// can apply a frame to one copy and keep the other.
func (s *State) Clone() *State {
	c := *s
	c.Points = append([]geom.Point(nil), s.Points...)
	c.Alive = append([]bool(nil), s.Alive...)
	return &c
}
