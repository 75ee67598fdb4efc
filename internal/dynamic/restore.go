package dynamic

import (
	"fmt"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// Restore reconstructs an Engine from previously exported state: the
// slot-indexed points and liveness mask, the base graph and the maintained
// spanner (both with Euclidean weights) — exactly what WAL recovery
// produces after loading a checkpoint and replaying the log tail. The
// engine takes ownership of all four arguments.
//
// The rebuilt engine is operationally equivalent to the one that
// exported the state: same topology, same slot assignments, and the
// spanner invariant holds because it held at export time and restore
// changes no edges. The only non-replicated detail is the free-slot
// reuse order, which is reset to "dead slots, lowest id first" — slot
// choice for future joins is an allocation detail, not topology state.
func Restore(points []geom.Point, alive []bool, base, sp *graph.Graph, opts Options) (*Engine, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(points) != len(alive) || base.N() != len(points) || sp.N() != len(points) {
		return nil, fmt.Errorf("dynamic: restore length mismatch: %d points, %d alive, base n=%d, spanner n=%d",
			len(points), len(alive), base.N(), sp.N())
	}
	dim := opts.Dim
	for id, a := range alive {
		if !a {
			continue
		}
		if points[id] == nil {
			return nil, fmt.Errorf("dynamic: restore: live slot %d has no point", id)
		}
		if dim == 0 {
			dim = points[id].Dim()
		}
		if points[id].Dim() != dim {
			return nil, fmt.Errorf("dynamic: restore: slot %d has dimension %d, want %d", id, points[id].Dim(), dim)
		}
	}
	if dim <= 0 {
		return nil, fmt.Errorf("dynamic: restore of an empty deployment needs Options.Dim")
	}
	e := &Engine{
		opts:    opts,
		dim:     dim,
		points:  points,
		alive:   alive,
		grid:    geom.NewDynamicGrid(opts.Radius),
		base:    base,
		sp:      sp,
		s:       graph.NewSearcher(len(points)),
		dirty:   make(map[int]struct{}),
		touched: make(map[int]struct{}),
	}
	for id := len(points) - 1; id >= 0; id-- {
		if alive[id] {
			e.grid.Add(id, points[id])
			e.n++
		} else {
			points[id] = nil // free slots hold no position
			e.free = append(e.free, id)
		}
	}
	return e, nil
}
