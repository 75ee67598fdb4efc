package graph

import "math"

// RowUpdate replaces one vertex's adjacency row wholesale. It is the unit
// of replication: a WAL delta frame carries the post-commit rows of every
// vertex the commit touched, and a follower applies them verbatim — same
// halfedges, same within-row order — so its frozen snapshots stay
// element-identical to the leader's without re-running any repair logic.
type RowUpdate struct {
	V   int
	Row []Halfedge
}

// FrozenFromRows builds a Frozen directly from explicit per-vertex
// adjacency rows (rows[u] is u's full halfedge row; nil means isolated).
// Every undirected edge must appear in both endpoint rows with equal
// weight — the encoding invariant of checkpoints and delta frames — or the
// edge count will be wrong. The rows are copied into a fresh contiguous
// slab.
func FrozenFromRows(rows [][]Halfedge) *Frozen {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	f := &Frozen{rows: make([]rowSpan, len(rows)), m: total / 2}
	f.slab = pack(f.rows, total, func(u int) []Halfedge { return rows[u] })
	return f
}

// ApplyRows is the one way a snapshot is derived from its predecessor: the
// engine's delta export, follower replication and WAL recovery all call
// it. It returns the successor of prev after replacing the given rows,
// with n the new vertex count (>= every update's id + 1; rows beyond
// prev's count start empty). Only genuinely changed rows are appended to
// the shared slab; when nothing differs (and n is unchanged) prev itself
// is returned, so a commit with zero net effect republishes the prior
// snapshot by pointer identity; and once appended garbage exceeds twice
// the live edge set the result is compacted into a fresh contiguous slab.
// Updates must contain both endpoint rows of every changed edge (the WAL
// touched-set invariant), so the edge count follows from the row delta
// alone; out-of-range and duplicate updates are ignored. The rows are
// copied, never aliased.
//
// Successors must form a linear chain with a single owner: prev must be
// the newest snapshot derived from its slab, because two successors forked
// from the same prev would append into the same slab positions. Readers
// of older snapshots are never affected: their rows are not overwritten.
//
// prev == nil applies the updates over an empty graph.
func ApplyRows(prev *Frozen, n int, updates []RowUpdate) *Frozen {
	if prev == nil {
		prev = &Frozen{}
	}
	anyDirty := n != len(prev.rows)
	if !anyDirty {
		for _, up := range updates {
			if up.V >= 0 && up.V < n && !prev.rowEqual(up.V, up.Row) {
				anyDirty = true
				break
			}
		}
	}
	if !anyDirty {
		return prev
	}
	f := &Frozen{
		rows: make([]rowSpan, n),
		slab: prev.slab,
		m:    prev.m,
	}
	copy(f.rows, prev.rows) // rows beyond len(prev.rows) start empty
	// Both endpoints of every changed edge are in updates, so half the
	// dirty-row degree delta is exactly the edge-count delta.
	degDelta := 0
	for _, up := range updates {
		if up.V < 0 || up.V >= n || f.rowEqual(up.V, up.Row) {
			continue // out of range, unchanged, or a duplicate already applied
		}
		degDelta += len(up.Row) - int(f.rows[up.V].deg)
		f.rows[up.V] = rowSpan{off: int32(len(f.slab)), deg: int32(len(up.Row))}
		f.slab = append(f.slab, up.Row...)
	}
	f.m += degDelta / 2
	if live := 2 * f.m; len(f.slab) > 3*live+64 || len(f.slab) > math.MaxInt32/2 {
		f.slab = pack(f.rows, live, f.row) // compact: too much appended garbage
	}
	return f
}
