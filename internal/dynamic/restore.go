package dynamic

import (
	"fmt"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// Restore starts an Engine from the given state: the slot-indexed points
// and liveness mask, the base graph and the maintained spanner (both with
// Euclidean weights). It is the one constructor: New builds that state
// and calls it, and WAL recovery calls it with what a checkpoint plus the
// replayed log tail produce. The engine takes ownership of all four
// arguments.
//
// So a fresh engine and one restored from its export make the same
// exports from then on, row order included.
// Two details are not part of the exported state and so are not
// replicated: the free-slot reuse order, reset to "dead slots, lowest id
// first", and the grid's bucket order, rebuilt in descending slot order.
// Churn changes both, so an engine restored after churn may give future
// joins other slots and write base rows in another order than the engine
// that exported the state. The spanner invariant holds because it held at
// export time and restore changes no edges.
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
			return nil, fmt.Errorf("dynamic: live slot %d has no point", id)
		}
		if dim == 0 {
			dim = points[id].Dim()
		}
		if points[id].Dim() != dim {
			return nil, fmt.Errorf("dynamic: slot %d has dimension %d, want %d", id, points[id].Dim(), dim)
		}
	}
	if dim <= 0 {
		return nil, fmt.Errorf("dynamic: empty engine needs Options.Dim")
	}
	e := &Engine{
		opts:    opts,
		dim:     dim,
		points:  points,
		alive:   alive,
		grid:    geom.NewGrid(dim, opts.Radius, nil),
		base:    base,
		sp:      sp,
		s:       graph.NewSearcher(len(points)),
		dirty:   make(map[int]struct{}),
		touched: make(map[int]struct{}),
	}
	for id := len(points) - 1; id >= 0; id-- {
		if alive[id] {
			e.grid.Add(&e.scan, id, points[id])
			e.n++
		} else {
			points[id] = nil // free slots hold no position
			e.free = append(e.free, id)
		}
	}
	return e, nil
}
