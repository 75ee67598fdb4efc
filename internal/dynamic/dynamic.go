// Package dynamic maintains a t-spanner of an α-quasi unit ball graph
// incrementally while the node set churns: nodes Join, Leave, and Move
// without the topology ever being rebuilt from scratch.
//
// The paper's setting is inherently dynamic — wireless nodes die, arrive,
// and are mobile — but its algorithm (and internal/core) is a one-shot
// construction. This package closes the gap with localized repair built on
// two observations:
//
//  1. The spanner invariant is per-edge: the topology is a t-spanner of the
//     base graph iff every base edge {u,v} has a spanner path of length at
//     most t·w(u,v) (the standard spanner argument). Maintaining the
//     invariant edge-by-edge therefore maintains the global guarantee.
//  2. A certifying path for edge {u,v} has length at most t·w_max, so it
//     lies inside the spanner ball of radius t·w_max around u. A topology
//     change can only break certificates of edges with an endpoint inside
//     that ball around the changed node — everything else is untouched.
//
// Each operation therefore (a) updates base-graph incidence with O(3^d)
// geom.DynamicGrid range queries, (b) collects the bounded "dirty" ball
// around the change with one epoch-stamped graph.Searcher ball query
// against the pre-change spanner, and (c) replays the greedy
// edge-acceptance rule (greedy.Accept, the rule extracted from SEQ-GREEDY)
// over only the base edges incident to dirty vertices, in canonical greedy
// order. The replay runs on the bidirectional existence kernel
// (graph.Searcher.ReachableWithin): each candidate probe grows two
// half-radius frontiers from the edge's endpoints and stops at the first
// meeting within t·w, rather than settling the full ball around one
// endpoint. Batched mode (Begin/Commit) coalesces an operation burst into one
// repair pass: structural updates apply immediately, dirty balls
// accumulate, and candidates are re-accepted once.
//
// The maintained spanner is always a subgraph of the current base graph
// (edges incident to departed or moved nodes are removed with the node),
// and repair never removes a certificate — so the per-edge invariant, and
// with it stretch ≤ t, holds after every committed operation. The
// differential fuzz test pins this against metrics.Stretch and a fresh
// core.Build across thousands of operation sequences.
package dynamic

import (
	"fmt"
	"sort"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/ubg"
)

// Options configures an Engine.
type Options struct {
	// T is the target stretch factor, > 1.
	T float64
	// Radius is the connectivity radius: two nodes are linked in the base
	// graph iff their Euclidean distance is at most Radius (default 1, the
	// unit ball graph; use α for the pessimistic α-UBG arm). The engine
	// maintains the ModelAll base graph — deterministic connectivity is
	// what makes incremental edge updates well-defined.
	Radius float64
	// Dim is the embedding dimension, required only when the engine starts
	// empty (otherwise inferred from the first point).
	Dim int
}

func (o *Options) normalize() error {
	if o.T <= 1 {
		return fmt.Errorf("dynamic: stretch t = %v must exceed 1", o.T)
	}
	if o.Radius == 0 {
		o.Radius = 1
	}
	if o.Radius < 0 {
		return fmt.Errorf("dynamic: radius %v must be positive", o.Radius)
	}
	return nil
}

// Stats counts the work the engine has done; the churn scenario runner and
// benchmarks report them.
type Stats struct {
	// Joins, Leaves and Moves count committed operations.
	Joins, Leaves, Moves int
	// Repairs counts repair passes (== operations when unbatched; one per
	// Commit when batched).
	Repairs int
	// Candidates counts edges replayed through the acceptance rule.
	Candidates int
	// EdgesAdded and EdgesRemoved count spanner mutations.
	EdgesAdded, EdgesRemoved int
	// DirtyVisited counts vertices swept into dirty balls.
	DirtyVisited int
}

// Engine maintains a base α-UBG and a t-spanner of it under churn. Vertex
// ids are dense slots; Leave frees a slot and a later Join may reuse it.
// An Engine is not safe for concurrent use.
type Engine struct {
	opts Options
	dim  int

	points []geom.Point // slot -> position; valid only where alive
	alive  []bool
	free   []int // freed slots available for reuse
	n      int   // live node count

	grid *geom.DynamicGrid
	base *graph.Graph // current base graph, Euclidean weights
	sp   *graph.Graph // maintained spanner, Euclidean weights

	s       *graph.Searcher
	nbrs    []int        // grid query scratch
	targets []int        // dropIncident scratch
	cands   []graph.Edge // repair candidate scratch
	dirty   map[int]struct{}
	batch   bool
	stats   Stats

	// Delta-export state (ExportFrozen): the last published frozen
	// snapshots and the vertices whose adjacency rows changed since then.
	touched     map[int]struct{}
	lastTouched []int
	rowScratch  []graph.RowUpdate
	expBase     *graph.Frozen
	expSp       *graph.Frozen
}

// New builds an engine over the given initial points (may be empty; then
// opts.Dim must be set). The base graph is built grid-cell-parallel
// straight into a frozen CSR slab (ubg.BuildRadius) and thawed, and the
// initial spanner is SEQ-GREEDY over it — the same acceptance rule
// incremental repair replays later. The engine then starts from that state
// through Restore, so a fresh engine and one restored from its own first
// export are the same engine and make the same future exports.
func New(points []geom.Point, opts Options) (*Engine, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	slots := max(len(points), 4)
	pts := make([]geom.Point, slots)
	alive := make([]bool, slots)
	for id, p := range points {
		pts[id] = p.Clone()
		alive[id] = true
	}
	f, err := ubg.BuildRadius(points, opts.Radius)
	if err != nil {
		return nil, err
	}
	base := f.Thaw()
	base.Grow(slots)
	return Restore(pts, alive, base, greedy.Spanner(base, opts.T), opts)
}

// addBaseEdges links id to every live node within Radius (skipping edges
// already present, so batch replays are idempotent).
func (e *Engine) addBaseEdges(id int) {
	e.nbrs = e.grid.NeighborsAppend(e.nbrs[:0], e.points[id], e.opts.Radius, id)
	for _, v := range e.nbrs {
		if !e.base.HasEdge(id, v) {
			e.base.AddEdge(id, v, geom.Dist(e.points[id], e.points[v]))
			e.touch(id)
			e.touch(v)
		}
	}
}

// N returns the live node count.
func (e *Engine) N() int { return e.n }

// Dim returns the embedding dimension.
func (e *Engine) Dim() int { return e.dim }

// Alive reports whether slot id currently holds a live node.
func (e *Engine) Alive(id int) bool {
	return id >= 0 && id < len(e.alive) && e.alive[id]
}

// Point returns the position of live node id (nil otherwise).
func (e *Engine) Point(id int) geom.Point {
	if !e.Alive(id) {
		return nil
	}
	return e.points[id]
}

// IDs appends the live node ids to dst in increasing order.
func (e *Engine) IDs(dst []int) []int {
	for id, a := range e.alive {
		if a {
			dst = append(dst, id)
		}
	}
	return dst
}

// Base returns the current base graph (Euclidean weights). Freed slots are
// isolated vertices. The graph is owned by the engine: read-only.
func (e *Engine) Base() *graph.Graph { return e.base }

// Spanner returns the maintained spanner (Euclidean weights). Owned by the
// engine: read-only.
func (e *Engine) Spanner() *graph.Graph { return e.sp }

// Stats returns the accumulated work counters.
func (e *Engine) Stats() Stats { return e.stats }

// ExportFrozen publishes the engine's current state as immutable frozen
// (CSR) snapshots, rebuilding only what changed since the previous call:
// the first call freezes both graphs in full, and every later call hands
// the touched adjacency rows to graph.ApplyRows — the same delta function
// followers and WAL recovery run on frames — so untouched rows alias the
// prior snapshot's storage. The cost — time and, more importantly,
// allocations — is proportional to the repair the engine actually
// performed plus two O(n) slot-metadata copies, not to n+m, which is what
// keeps snapshot-per-commit publishing cheap under churn. When no row
// changed since the previous call, ApplyRows returns the prior graphs
// themselves, so a zero-net-change commit republishes them by pointer.
//
// The first call's full freeze leaves no spare capacity in either slab,
// which a WAL leader's shadow state relies on when it forks from it (see
// graph.ApplyRows).
//
// The returned points alias the engine's per-slot Point values. That is
// safe to publish because the engine never mutates a Point in place — Join
// and Move install fresh clones — but callers must treat them as
// read-only, like everything else returned here.
func (e *Engine) ExportFrozen() (points []geom.Point, alive []bool, base, sp *graph.Frozen) {
	e.lastTouched = e.lastTouched[:0]
	for v := range e.touched {
		e.lastTouched = append(e.lastTouched, v)
	}
	sort.Ints(e.lastTouched)
	clear(e.touched)
	if e.expBase == nil {
		e.expBase, e.expSp = graph.Freeze(e.base), graph.Freeze(e.sp)
	} else {
		n := e.base.N()
		e.expBase = graph.ApplyRows(e.expBase, n, e.touchedRows(e.base))
		e.expSp = graph.ApplyRows(e.expSp, n, e.touchedRows(e.sp))
	}
	return append([]geom.Point(nil), e.points...), append([]bool(nil), e.alive...), e.expBase, e.expSp
}

// touchedRows returns g's current rows at the last export's touched
// vertices, in engine-owned scratch valid until the next call.
func (e *Engine) touchedRows(g *graph.Graph) []graph.RowUpdate {
	e.rowScratch = e.rowScratch[:0]
	for _, v := range e.lastTouched {
		e.rowScratch = append(e.rowScratch, graph.RowUpdate{V: v, Row: g.Neighbors(v)})
	}
	return e.rowScratch
}

// LastExportTouched returns the vertices whose adjacency rows the most
// recent ExportFrozen re-froze, sorted ascending — the row set a WAL
// delta frame must carry so a replica applying it reproduces the export
// exactly. Empty after the first export, which freezes every row, and
// after an export that no row change preceded. The slice is engine-owned
// scratch, valid until the next ExportFrozen.
func (e *Engine) LastExportTouched() []int { return e.lastTouched }

// Options returns the normalized engine options.
func (e *Engine) Options() Options { return e.opts }

// Begin enters batched mode: subsequent operations update the base graph
// immediately but defer spanner repair until Commit. While a batch is open
// the spanner may transiently violate the stretch bound.
func (e *Engine) Begin() { e.batch = true }

// Commit closes a batch with a single repair pass over the accumulated
// dirty set. It is a no-op outside a batch.
func (e *Engine) Commit() {
	if !e.batch {
		return
	}
	e.batch = false
	e.repair()
}

// Join adds a node at p and returns its id.
func (e *Engine) Join(p geom.Point) (int, error) {
	if p.Dim() != e.dim {
		return 0, fmt.Errorf("dynamic: point dimension %d, want %d", p.Dim(), e.dim)
	}
	id := e.alloc()
	e.points[id] = p.Clone()
	e.alive[id] = true
	e.n++
	e.grid.Add(id, e.points[id])
	e.addBaseEdges(id)
	// A join breaks no existing certificate (nothing is removed); only the
	// new node's own base edges need acceptance.
	e.markDirty(id)
	e.stats.Joins++
	e.afterOp()
	return id, nil
}

// Leave removes node id.
func (e *Engine) Leave(id int) error {
	if !e.Alive(id) {
		return fmt.Errorf("dynamic: leave of dead node %d", id)
	}
	e.retire(id)
	e.grid.Remove(id)
	e.points[id] = nil
	e.alive[id] = false
	e.n--
	e.free = append(e.free, id)
	e.stats.Leaves++
	e.afterOp()
	return nil
}

// Move relocates node id to p.
func (e *Engine) Move(id int, p geom.Point) error {
	if !e.Alive(id) {
		return fmt.Errorf("dynamic: move of dead node %d", id)
	}
	if p.Dim() != e.dim {
		return fmt.Errorf("dynamic: point dimension %d, want %d", p.Dim(), e.dim)
	}
	e.retire(id)
	e.points[id] = p.Clone()
	e.grid.Move(id, e.points[id])
	e.addBaseEdges(id)
	e.markDirty(id)
	e.stats.Moves++
	e.afterOp()
	return nil
}

// retire removes id's base and spanner edges, first sweeping the spanner
// ball of radius t·w_max around id into the dirty set: any base edge whose
// certifying path traverses an edge incident to id has an endpoint in that
// ball (certificates are at most t·w_max long), measured against the
// spanner as it stands *before* the removal. Inside a batch the sweep
// stays sufficient by induction on the ops: consider a base edge whose
// certificate (as of batch start) traverses edges incident to several
// batch casualties, and let id be the one removed *earliest*. At that
// moment the certificate is still fully intact — no repair has run, and
// no earlier op removed any of its edges — so the certificate itself
// keeps the edge's endpoint within t·w_max of id in the pre-drop spanner
// and the sweep catches it, even though later sweeps (run against a
// further-shrunken spanner, where distances have grown) might not.
func (e *Engine) retire(id int) {
	for _, vd := range e.s.Ball(e.sp, id, e.opts.T*e.opts.Radius) {
		if vd.V != id {
			e.markDirty(vd.V)
		}
	}
	e.dropIncident(e.base, id)
	e.stats.EdgesRemoved += e.dropIncident(e.sp, id)
}

// dropIncident removes every edge incident to id from g, returning the
// number removed. Neighbor targets are snapshotted into engine scratch
// first because RemoveEdge mutates the adjacency list being iterated.
func (e *Engine) dropIncident(g *graph.Graph, id int) int {
	e.targets = e.targets[:0]
	for _, h := range g.Neighbors(id) {
		e.targets = append(e.targets, h.To)
	}
	for _, v := range e.targets {
		g.RemoveEdge(id, v)
		e.touch(v)
	}
	if len(e.targets) > 0 {
		e.touch(id)
	}
	return len(e.targets)
}

// alloc returns a free slot, growing every id-indexed structure (amortized
// doubling) when none remains.
func (e *Engine) alloc() int {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	old := len(e.points)
	next := 2 * old
	e.points = append(e.points, make([]geom.Point, next-old)...)
	e.alive = append(e.alive, make([]bool, next-old)...)
	e.base.Grow(next)
	e.sp.Grow(next)
	for id := next - 1; id > old; id-- {
		e.free = append(e.free, id)
	}
	return old
}

// touch records that v's adjacency row (in the base graph, the spanner, or
// both) changed since the last ExportFrozen. Rows never touched between two
// exports are shared, not rebuilt, by the delta export.
func (e *Engine) touch(v int) { e.touched[v] = struct{}{} }

func (e *Engine) markDirty(v int) {
	if _, ok := e.dirty[v]; !ok {
		e.dirty[v] = struct{}{}
		e.stats.DirtyVisited++
	}
}

func (e *Engine) afterOp() {
	if !e.batch {
		e.repair()
	}
}

// repair replays the greedy acceptance rule over every base edge incident
// to a dirty vertex, in canonical greedy order, restoring the per-edge
// spanner invariant.
func (e *Engine) repair() {
	defer clear(e.dirty)
	if len(e.dirty) == 0 {
		e.stats.Repairs++
		return
	}
	cands := e.cands[:0]
	for v := range e.dirty {
		if !e.alive[v] {
			continue
		}
		for _, h := range e.base.Neighbors(v) {
			if _, dup := e.dirty[h.To]; dup && h.To < v {
				continue // the lower-id dirty endpoint owns the edge
			}
			cands = append(cands, graph.NewEdge(v, h.To, h.W))
		}
	}
	e.cands = cands
	graph.SortEdgesCanonical(cands)
	for _, ed := range cands {
		if greedy.Accept(e.s, e.sp, ed, e.opts.T) {
			e.sp.AddEdge(ed.U, ed.V, ed.W)
			e.touch(ed.U)
			e.touch(ed.V)
			e.stats.EdgesAdded++
		}
	}
	e.stats.Candidates += len(cands)
	e.stats.Repairs++
}
