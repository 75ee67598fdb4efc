// Package labels implements an exact hub-label (2-hop) distance oracle
// built at the freeze boundary: when the serving layer publishes a frozen
// topology snapshot, a pruned landmark labeling over it turns every
// point-to-point distance query into an allocation-free sorted-array
// intersection — microseconds of A* search become tens of
// nanoseconds of merge loop — without ever returning a wrong answer.
//
// Construction is pruned landmark labeling (Akiba–Iwata–Yoshida, SIGMOD
// 2013): process every vertex as a "hub" in a fixed rank order, running a
// Dijkstra from each that is pruned wherever the labels built so far
// already certify a distance no worse than the tentative one
// (graph.Searcher.DijkstraPruned). Each un-pruned settled vertex v gains
// the label entry (hub, d(hub, v)). The classical invariant: after all
// hubs are processed, for every pair (s, t) the minimum of
// L(s)[h] + L(t)[h] over common hubs h equals the exact shortest-path
// distance (and no common hub means unreachable). The rank order decides
// label size, not correctness; ours is a nested dissection (hubOrder). A
// bounded-degree subgraph of a unit ball graph has small balanced
// separators, and ranking them first, outermost first, is the classic
// good order for pruned labeling (Abraham et al., ESA 2012).
//
// Storage mirrors graph.Frozen: per-vertex (hub, dist) runs live in one
// flat slab behind a span table, hubs stored as int32 ranks in increasing
// order so a query is a single merge-intersection over two sorted runs —
// no maps, no allocation, cache-linear.
//
// An oracle is exact for the graph Build ran on and nothing else; it does
// no per-commit repair. Update hands back the receiver while the graph is
// unchanged, and any commit that changes it yields a stale successor —
// every query then reports "cannot certify" and the caller falls back to
// its search (slower, never wrong) — until rebuildAfter stale commits
// trigger a full rebuild. Oracles are immutable: Update never modifies the
// receiver, so concurrent readers of an older snapshot's oracle are never
// disturbed.
package labels

import (
	"cmp"
	"math"
	"slices"

	"topoctl/internal/graph"
)

// Options configures construction and maintenance policy. Production
// uses the zero value: hubs rank in hubOrder's nested-dissection order,
// and Update rebuilds on every 32nd graph-changing commit since the last
// build.
type Options struct {
	// order overrides hubOrder; the package's tests vary it. It affects
	// label size only, never correctness.
	order func(g graph.Topology) []int
	// rebuildAfter overrides the rebuild cadence (default 32; 1 means
	// rebuild on every commit); the package's tests shorten it.
	rebuildAfter int
}

func (o *Options) normalize() {
	if o.order == nil {
		o.order = hubOrder
	}
	if o.rebuildAfter <= 0 {
		o.rebuildAfter = 32
	}
}

// span locates one vertex's label run in the slab.
type span struct{ off, cnt int32 }

// Oracle is an immutable exact distance oracle over one topology version.
// Query is safe for concurrent use; Update returns a successor oracle and
// never modifies the receiver.
type Oracle struct {
	opts Options

	// n is the vertex count of the graph this oracle stands for.
	n int

	// Label state, exact for the graph Build ran on (empty when stale).
	spans []span
	hubs  []int32 // hub ranks, strictly increasing within each span
	dists []float64

	// staleCount is the number of graph-changing commits since the last
	// build; while it is non-zero queries cannot certify.
	staleCount int
}

// Build constructs an exact oracle for g. The oracle keeps no reference
// to g.
func Build(g graph.Topology, opts Options) *Oracle {
	opts.normalize()
	n := g.N()
	o := &Oracle{opts: opts, n: n, spans: make([]span, n)}

	// Ranks are what labels store, so per-vertex runs come out sorted for
	// free.
	hubOf := opts.order(g)

	// Temporary per-vertex lists; flattened into the slab below.
	type entry struct {
		r int32
		d float64
	}
	lists := make([][]entry, n)
	// Scatter array for the current hub's labels, rank-indexed and
	// epoch-stamped so it resets in O(|L(hub)|) per hub.
	hubDist := make([]float64, n)
	hubStamp := make([]uint32, n)
	var epoch uint32
	srch := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(srch)

	for rk := 0; rk < n; rk++ {
		h := hubOf[rk]
		epoch++
		for _, e := range lists[h] {
			hubDist[e.r] = e.d
			hubStamp[e.r] = epoch
		}
		rk32 := int32(rk)
		srch.DijkstraPruned(g, h, graph.Inf, func(v int, d float64) bool {
			// Prune when the labels built so far already certify d(h, v)
			// at or below the tentative distance.
			best := graph.Inf
			for _, e := range lists[v] {
				if hubStamp[e.r] == epoch {
					if s := hubDist[e.r] + e.d; s < best {
						best = s
					}
				}
			}
			if best <= d {
				return false
			}
			lists[v] = append(lists[v], entry{r: rk32, d: d})
			return true
		})
	}

	total := 0
	for _, l := range lists {
		total += len(l)
	}
	o.hubs = make([]int32, 0, total)
	o.dists = make([]float64, 0, total)
	for v, l := range lists {
		o.spans[v] = span{off: int32(len(o.hubs)), cnt: int32(len(l))}
		for _, e := range l {
			o.hubs = append(o.hubs, e.r)
			o.dists = append(o.dists, e.d)
		}
	}
	return o
}

// hubOrder returns the vertices in rank order: a nested dissection of g
// that reads only its adjacency, O(n + m) per level. A connected part is
// cut between two levels of hops(a, v) − hops(b, v), where the pole a is
// the vertex farthest from some vertex of the part and b the vertex
// farthest from a: the sparsest level cut (fewest crossing vertices per
// |A|·|B|) leaving each side a quarter of the part, else the most balanced.
// Its a-side vertices with an edge across take the next ranks, by
// decreasing degree, then id; the components of both sides are cut in
// turn, breadth-first, so outer separators rank first. A part of at most
// two vertices ranks its vertices itself.
func hubOrder(g graph.Topology) []int {
	n := g.N()
	part := make([]int, n) // part id; -1 once ranked
	key, top, buf, q := make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	cnt, across, next := make([]int, 2*n+1), make([]int, 2*n+1), 1
	// bfs gives src's part a fresh id and its vertices, in q, their hops
	// from src in h; it returns the farthest (least id on ties) and the size.
	bfs := func(src int, h, q []int) (far, size int) {
		old, id := part[src], next
		next++
		part[src], h[src], q[0], far, size = id, 0, src, src, 1
		for head := 0; head < size; head++ {
			u := q[head]
			if h[u] > h[far] || h[u] == h[far] && u < far {
				far = u
			}
			for _, e := range g.Neighbors(u) {
				if part[e.To] == old {
					part[e.To], h[e.To], q[size] = id, h[u]+1, e.To
					size++
				}
			}
		}
		return far, size
	}
	var order, queue, sep []int // queue: the a pole of each part to cut
	for v := range n {
		if part[v] == 0 {
			a, _ := bfs(v, top, q)
			queue = append(queue, a)
		}
	}
	for ; len(queue) > 0; queue = queue[1:] {
		b, size := bfs(queue[0], key, buf)
		bfs(b, top, buf)
		p, d := buf[:size], key[b]
		if sep = sep[:0]; size <= 2 {
			sep = append(sep, p...)
		} else {
			// key[v] = hops(a, v) − hops(b, v) + d ∈ [0, 2d] and top[v], the
			// highest key next to v, bound the cuts m that v is across.
			clear(cnt[:2*d+1])
			clear(across[:2*d+1])
			for _, v := range p {
				key[v] += d - top[v]
			}
			for _, v := range p {
				top[v] = key[v]
				for _, e := range g.Neighbors(v) {
					if part[e.To] == part[v] {
						top[v] = max(top[v], key[e.To])
					}
				}
				cnt[key[v]]++
				across[key[v]]++
				across[top[v]]--
			}
			m, short, ratio := 0, size, math.Inf(1)
			for k, below, cut := 0, 0, 0; k < 2*d; k++ {
				below, cut = below+cnt[k], cut+across[k]
				s := max(0, size-4*min(below, size-below))
				if r := float64(cut) / float64(below*(size-below)); s < short || s == short && r < ratio {
					m, short, ratio = k, s, r
				}
			}
			for _, v := range p {
				if key[v] > m {
					part[v] = next
				} else if top[v] > m {
					sep = append(sep, v)
				}
			}
			next++
		}
		slices.SortFunc(sep, func(u, v int) int { return cmp.Or(g.Degree(v)-g.Degree(u), u-v) })
		for _, v := range sep {
			part[v] = -1
		}
		order = append(order, sep...)
		for first, i := next, 0; i < size; i++ {
			if v := p[i]; part[v] >= 0 && part[v] < first {
				a, _ := bfs(v, top, q)
				queue = append(queue, a)
			}
		}
	}
	return order
}

// Query answers the exact shortest-path distance between s and t on the
// graph the oracle was built for, by sorted merge over the two label runs.
// The boolean reports whether the oracle can certify an answer: false
// means the oracle is stale and the caller must fall back to a direct
// search. When true, the distance is exact — graph.Inf for unreachable
// pairs. s and t must be valid vertex ids of that graph. Query performs no
// allocation and is safe for concurrent use.
func (o *Oracle) Query(s, t int) (float64, bool) {
	if o.staleCount > 0 {
		return 0, false
	}
	if s == t {
		return 0, true
	}
	ss, st := o.spans[s], o.spans[t]
	a, aEnd := int(ss.off), int(ss.off+ss.cnt)
	b, bEnd := int(st.off), int(st.off+st.cnt)
	best := graph.Inf
	for a < aEnd && b < bEnd {
		ra, rb := o.hubs[a], o.hubs[b]
		switch {
		case ra == rb:
			if d := o.dists[a] + o.dists[b]; d < best {
				best = d
			}
			a++
			b++
		case ra < rb:
			a++
		default:
			b++
		}
	}
	return best, true
}

// Update derives the oracle for a successor graph g. touched must contain
// every vertex whose adjacency differs between the oracle's graph and g
// (the same contract as graph.ApplyRows; dynamic.Engine.LastExportTouched
// is exactly this set). With nothing touched and the vertex count
// unchanged the graph is the same, and Update returns the receiver. Any
// other commit yields a stale successor, whose queries decline, or — on
// every rebuildAfter-th such commit — a full rebuild on g. The receiver is
// never modified.
func (o *Oracle) Update(g graph.Topology, touched []int) *Oracle {
	if len(touched) == 0 && g.N() == o.n {
		return o
	}
	if o.staleCount+1 >= o.opts.rebuildAfter {
		return Build(g, o.opts)
	}
	return &Oracle{opts: o.opts, n: g.N(), staleCount: o.staleCount + 1}
}

// Stats describes the oracle's size and maintenance state.
type Stats struct {
	// Vertices is the labeled vertex count (of the build graph).
	Vertices int
	// Entries is the total number of (hub, dist) label entries.
	Entries int
	// MaxLabel is the largest per-vertex label run.
	MaxLabel int
	// BytesPerVertex is the label storage footprint (span table + hub
	// ranks + distances) divided by Vertices.
	BytesPerVertex float64
	// Stale reports fallback mode; StaleCommits how many commits it has
	// persisted (rebuild at rebuildAfter).
	Stale        bool
	StaleCommits int
}

// Stats returns the oracle's size and state counters.
func (o *Oracle) Stats() Stats {
	st := Stats{
		Vertices:     len(o.spans),
		Entries:      len(o.hubs),
		Stale:        o.staleCount > 0,
		StaleCommits: o.staleCount,
	}
	for _, s := range o.spans {
		if int(s.cnt) > st.MaxLabel {
			st.MaxLabel = int(s.cnt)
		}
	}
	if st.Vertices > 0 {
		st.BytesPerVertex = float64(len(o.hubs)*4+len(o.dists)*8+len(o.spans)*8) / float64(st.Vertices)
	}
	return st
}
