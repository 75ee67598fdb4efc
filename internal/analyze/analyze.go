// Package analyze implements the read-side topology health and
// failure-impact analytics behind topoctld's /analyze API family: failure
// impact (which vertices go dark and which pairs lose their stretch
// guarantee if a vertex set or region dies), k-hop subgraph extraction
// shaped for a Cytoscape-style viewer, per-hop route explanation against
// the base-graph optimum, and spanner-vs-base divergence reports. The
// divergence report's stretch probe (ProbeStretch) is also the one behind
// topoctld's /stats stretch estimate.
//
// Every query is a pure function over a View — an immutable bundle of the
// topology state one serving snapshot holds (positions, liveness, base
// graph, spanner, stretch bound) through the graph.Topology read interface,
// so the same code runs on the mutable *graph.Graph builders use and the
// frozen CSR snapshots the daemon serves. Nothing here mutates shared
// state: fault sets are applied to working copies (internal/fault's
// appliers), searches run on Searcher scratch from internal/graph's pool,
// and the expensive scans fan out across GOMAXPROCS workers with an
// optional wall-clock cap, so an analysis query can never stall the writer
// or another reader.
package analyze

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/routing"
)

// ErrBadQuery reports a malformed analysis request (out-of-range knob,
// half-specified region, unknown graph selector).
var ErrBadQuery = errors.New("analyze: bad query")

// ErrUnknownVertex reports a query naming a dead or out-of-range vertex.
var ErrUnknownVertex = errors.New("analyze: unknown vertex")

// View is one immutable topology version under analysis: the exact bundle
// a serving snapshot holds. All fields are read-only for the duration of
// the query; the serving layer hands in frozen graphs, tests hand in
// mutable ones.
type View struct {
	// Points holds slot-indexed positions; nil entries are free slots.
	// Point-to-point searches are goal-directed by them (A*, as /route
	// runs), so every edge of Base and Spanner must weigh at least the
	// distance between its endpoints' points. A View whose weights are not
	// Euclidean leaves Points nil; its searches are then plain Dijkstra.
	Points []geom.Point
	// Alive marks which slots hold live vertices; nil means all are live.
	Alive []bool
	// Base is the connectivity graph, Spanner the maintained t-spanner.
	Base    graph.Topology
	Spanner graph.Topology
	// T is the spanner stretch bound health checks compare against.
	T float64
	// Oracle, when set, is the hub-label distance oracle over Spanner;
	// route explanations cross-check it against the search answer.
	Oracle routing.DistanceOracle
}

// n returns the vertex count of the view.
func (v View) n() int { return v.Spanner.N() }

// alive reports whether x names a live vertex.
func (v View) alive(x int) bool {
	return x >= 0 && x < v.n() && (v.Alive == nil || v.Alive[x])
}

// liveCount counts live vertices.
func (v View) liveCount() int {
	if v.Alive == nil {
		return v.n()
	}
	live := 0
	for _, a := range v.Alive {
		if a {
			live++
		}
	}
	return live
}

// Options tunes resource usage of a query; the zero value is ready to use.
type Options struct {
	// MaxDuration caps the wall-clock time of the stretch scans; when
	// exceeded the report is returned with Truncated set and counts
	// reflecting the edges actually checked. Zero means no cap.
	MaxDuration time.Duration
}

// StretchWitness is one base-graph pair pinned as evidence by a stretch
// scan: the surviving spanner distance between the endpoints against the
// base edge weight. Reachable false means no surviving spanner path at all
// (Distance and Stretch are then 0 — JSON carries no infinity).
type StretchWitness struct {
	U          int     `json:"u"`
	V          int     `json:"v"`
	BaseWeight float64 `json:"base_weight"`
	Distance   float64 `json:"distance"`
	Reachable  bool    `json:"reachable"`
	Stretch    float64 `json:"stretch"`
}

// witnessWorse ranks witnesses most-severe first: unreachable pairs before
// any finite stretch, then by stretch descending, with the vertex pair as
// the deterministic tiebreak.
func witnessWorse(a, b StretchWitness) bool {
	if a.Reachable != b.Reachable {
		return !a.Reachable
	}
	if a.Stretch != b.Stretch {
		return a.Stretch > b.Stretch
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// scanParallel strides fn over 0..count-1 across GOMAXPROCS workers, each
// holding one Searcher from graph's pool, sized for n vertices, for its
// whole stripe. A non-zero maxDuration sets a deadline checked every few
// items; once it passes, workers stop picking up new items. It returns how
// many items were processed and whether the scan was cut short. With one
// worker (or few items) it runs inline on the caller's goroutine.
func scanParallel(n, count int, maxDuration time.Duration, fn func(srch *graph.Searcher, i int)) (processed int, truncated bool) {
	const deadlineStride = 32
	var deadline time.Time
	if maxDuration > 0 {
		deadline = time.Now().Add(maxDuration)
	}
	workers := min(runtime.GOMAXPROCS(0), count)
	var expired atomic.Bool
	checkDeadline := func(i int) bool {
		if deadline.IsZero() {
			return false
		}
		if expired.Load() {
			return true
		}
		if i%deadlineStride == 0 && time.Now().After(deadline) {
			expired.Store(true)
			return true
		}
		return false
	}
	if workers <= 1 {
		srch := graph.AcquireSearcher(n)
		defer graph.ReleaseSearcher(srch)
		for i := 0; i < count; i++ {
			if checkDeadline(i) {
				return processed, true
			}
			fn(srch, i)
			processed++
		}
		return processed, false
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			srch := graph.AcquireSearcher(n)
			defer graph.ReleaseSearcher(srch)
			for i := w; i < count; i += workers {
				if checkDeadline(i) {
					return
				}
				fn(srch, i)
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return int(done.Load()), expired.Load()
}
