package core

import (
	"fmt"
	"sort"

	"topoctl/internal/cluster"
	"topoctl/internal/fault"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/mis"
)

// Options configures a sequential relaxed-greedy build. The zero value of
// the ablation flags is the paper's algorithm; each flag disables one design
// ingredient so the T12 ablation experiment can measure its contribution.
type Options struct {
	// Params are the derived constants (see NewParams).
	Params Params
	// Metric is the edge-weight metric (default Euclidean).
	Metric Metric
	// DisableCoveredFilter skips the Czumaj–Zhao covered-edge filter
	// (§2.2.2, Lemma 3): every non-spanner bin edge becomes a candidate.
	DisableCoveredFilter bool
	// DisableQueryFilter skips the one-query-edge-per-cluster-pair rule
	// (formula (1)): every candidate edge is queried.
	DisableQueryFilter bool
	// DisableRedundancy skips mutually-redundant edge removal (§2.2.5).
	DisableRedundancy bool
	// EagerUpdates abandons lazy updating: candidates are tested one at a
	// time against the live spanner with exact Dijkstra queries instead of
	// in parallel against the frozen cluster graph. This is the variant
	// that cannot be distributed; it serves as the "exact" reference arm
	// of the ablation.
	EagerUpdates bool
	// BinRatio overrides the derived bin ratio r when > 1 (ablation: the
	// theory requires r < (tδ+1)/2; larger r means fewer, coarser bins).
	BinRatio float64
	// FaultK, when positive, builds a k-fault-tolerant spanner (§1.6.1,
	// after Czumaj–Zhao): phase 0 requires k+1 disjoint t-paths per clique
	// edge, k+1 query edges are kept per cluster pair, a query edge is
	// rejected only when the partial spanner already packs k+1 disjoint
	// t-paths, and redundancy removal is skipped (a removed edge's
	// surviving counterpart is a single point of failure). Disjointness is
	// packed on the partial spanner, not the cluster graph — see NeedsEdge.
	FaultK int
	// FaultVertexMode switches FaultK to vertex faults (internally
	// vertex-disjoint path packing), the strictly stronger guarantee.
	FaultVertexMode bool
}

// faultMode maps the options to the fault model.
func (o Options) faultMode() fault.Mode {
	if o.FaultVertexMode {
		return fault.VertexFaults
	}
	return fault.EdgeFaults
}

// Stats counts what the algorithm did; the experiment harness reports them.
type Stats struct {
	// Phases is the total number of bins in the schedule (M+1).
	Phases int
	// NonEmptyPhases is how many bins actually contained edges.
	NonEmptyPhases int
	// EdgesTotal and EdgesShort count input edges and bin-0 edges.
	EdgesTotal, EdgesShort int
	// AlreadyInSpanner counts bin edges skipped because an earlier phase
	// (e.g. a phase-0 clique spanner) already retained them.
	AlreadyInSpanner int
	// SameCluster counts bin edges with both endpoints in one cluster
	// (always already t-spanned; see DESIGN.md §3.3 step 2).
	SameCluster int
	// Covered counts edges dropped by the Czumaj–Zhao filter.
	Covered int
	// Candidates counts candidate query edges after filtering.
	Candidates int
	// Queried counts selected query edges actually tested.
	Queried int
	// Added counts edges added to the spanner (including phase 0).
	Added int
	// RemovedRedundant counts edges deleted by redundancy removal.
	RemovedRedundant int
	// MaxInterDegree is the largest cluster-graph inter-cluster degree
	// observed (Lemma 6 quantity).
	MaxInterDegree int
	// MaxQueryEdgesPerCluster is the largest number of selected query
	// edges incident to one cluster in any phase (Lemma 4 quantity).
	MaxQueryEdgesPerCluster int
}

// Result is a completed build.
type Result struct {
	// Spanner is the output G' with weights in the chosen metric.
	Spanner *graph.Graph
	// Params echoes the constants used.
	Params Params
	// Bins echoes the bin schedule.
	Bins Bins
	// Stats reports work counters.
	Stats Stats
}

// Build runs the sequential relaxed greedy algorithm (paper §2) on the
// α-UBG g whose vertices are embedded at points. Edge weights of g must be
// Euclidean lengths (as produced by internal/ubg); the output spanner's
// weights are in opts.Metric units.
func Build(points []geom.Point, g *graph.Graph, opts Options) (*Result, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.Metric == (Metric{}) {
		opts.Metric = EuclideanMetric
	}
	if err := opts.Metric.Validate(); err != nil {
		return nil, err
	}
	if len(points) != g.N() {
		return nil, fmt.Errorf("core: %d points but %d vertices", len(points), g.N())
	}
	b := &builder{
		points: points,
		g:      g,
		opts:   opts,
		p:      opts.Params,
		sp:     graph.New(g.N()),
	}
	if opts.BinRatio > 1 {
		b.p.R = opts.BinRatio
	}
	b.run()
	return &Result{Spanner: b.sp, Params: b.p, Bins: b.bins, Stats: b.stats}, nil
}

// builder carries the mutable state of one build.
type builder struct {
	points []geom.Point
	g      *graph.Graph // input α-UBG, Euclidean weights
	opts   Options
	p      Params
	sp     *graph.Graph // output spanner, metric weights
	bins   Bins
	stats  Stats
}

func (b *builder) run() {
	n := b.g.N()
	b.bins = NewBins(n, b.p)
	b.stats.Phases = b.bins.M + 1

	// Distribute edges into bins by Euclidean length.
	byBin := BinEdges(b.g, b.bins, b.opts.Metric)
	b.stats.EdgesTotal = b.g.M()
	b.stats.EdgesShort = len(byBin[0])

	added := Phase0(b.points, b.sp, byBin[0], b.p.T, b.opts.Metric, b.opts.FaultK, b.opts.faultMode())
	b.stats.Added += added

	// Remaining bins in increasing order, skipping empty ones (pure
	// optimization: an empty phase performs no queries and no updates).
	for i := 1; i < len(byBin); i++ {
		if len(byBin[i]) > 0 {
			b.stats.NonEmptyPhases++
			b.phase(i, byBin[i])
		}
	}
}

// BinEdges distributes the edges of g (Euclidean weights) into the bin
// schedule, annotating each with its metric weight: byBin[i] holds bin i's
// edges, for i in [0, bins.M]. Edge order within a bin is irrelevant (every
// consumer sorts or groups deterministically), so the unsorted edge
// enumeration suffices.
func BinEdges(g *graph.Graph, bins Bins, m Metric) [][]EdgeInfo {
	byBin := make([][]EdgeInfo, bins.M+1)
	for _, e := range g.EdgesUnordered() {
		i := bins.Index(e.W)
		byBin[i] = append(byBin[i], EdgeInfo{U: e.U, V: e.V, Dist: e.W, W: m.Weight(e.W)})
	}
	return byBin
}

// Phase0 implements PROCESS-SHORT-EDGES (§2.1): the connected components of
// the bin-0 graph are cliques in G (Lemma 1); each is t-spanned by
// SEQ-GREEDY over its full clique (the k-fault-tolerant greedy when
// faultK > 0). Retained edges are inserted into sp with metric weights;
// the number added is returned. Exported because the distributed algorithm
// runs the identical local computation per component (Theorem 14).
func Phase0(points []geom.Point, sp *graph.Graph, short []EdgeInfo, t float64, m Metric, faultK int, faultMode fault.Mode) int {
	if len(short) == 0 {
		return 0
	}
	g0 := graph.New(sp.N())
	for _, e := range short {
		g0.AddEdge(e.U, e.V, e.Dist)
	}
	added := 0
	for _, comp := range g0.Components() {
		if len(comp) < 2 {
			continue
		}
		edges := greedy.CliqueEdges(comp, func(u, v int) float64 {
			return m.Weight(geom.Dist(points[u], points[v]))
		})
		if faultK > 0 {
			added += len(fault.Run(sp, edges, t, faultK, faultMode))
		} else {
			added += len(greedy.Run(sp, edges, t))
		}
	}
	return added
}

// phase implements PROCESS-LONG-EDGES (§2.2) for one bin.
func (b *builder) phase(i int, edges []EdgeInfo) {
	if b.opts.EagerUpdates {
		b.phaseEager(edges)
		return
	}

	wPrev := b.opts.Metric.Weight(b.bins.Ceiling(i - 1)) // W_{i-1}, metric units
	radius := b.p.Delta * wPrev
	crossBound := (2*b.p.Delta + 1) * wPrev

	// Step (i): cluster cover of G'_{i-1}.
	cov := cluster.GreedyCover(b.sp, radius)

	// Step (iii) [built before queries are answered]: cluster graph H_{i-1}.
	// Inter-edges heavier than t·W_i can never serve a query in this phase.
	rescueBound := b.p.T * b.opts.Metric.Weight(b.bins.Ceiling(i))
	cg := cluster.BuildClusterGraph(b.sp, cov, wPrev, crossBound, rescueBound)
	if d := cg.MaxInterDegree(); d > b.stats.MaxInterDegree {
		b.stats.MaxInterDegree = d
	}

	// Step (ii): select query edges. Fault-tolerant builds disable the
	// covered-edge filter: coverage rests on a single spanner edge {u,z},
	// a single point of failure.
	queries, st := SelectQueries(b.points, b.sp, cov, edges, SelectOpts{
		T: b.p.T, Theta: b.p.Theta, Alpha: b.p.Alpha,
		DisableCoveredFilter: b.opts.DisableCoveredFilter || b.opts.FaultK > 0,
		DisableQueryFilter:   b.opts.DisableQueryFilter,
		PerPairExtra:         b.opts.FaultK,
	})
	b.absorbSelectStats(st)

	// Step (iv): answer shortest path queries on H_{i-1}; lazy updates —
	// the spanner is only modified after every query has been answered.
	// Fault-tolerant builds pack disjoint paths on the partial spanner
	// itself: edge-disjoint H-paths do not certify edge-disjoint G'-paths
	// (distinct H edges can expand to overlapping G' segments).
	var added []EdgeInfo
	for _, q := range queries {
		b.stats.Queried++
		if b.opts.FaultK > 0 {
			if !NeedsEdge(b.sp, q, b.p.T, b.opts.FaultK, b.opts.faultMode()) {
				continue
			}
		} else if !NeedsEdge(cg.H, q, b.p.T, 0, fault.EdgeFaults) {
			continue
		}
		added = append(added, q)
	}
	for _, e := range added {
		b.sp.AddEdge(e.U, e.V, e.W)
		b.stats.Added++
	}

	// Step (v): remove mutually redundant edges among this phase's
	// additions. Skipped for fault-tolerant builds: a removed edge relies
	// on exactly one surviving counterpart, a single point of failure.
	if !b.opts.DisableRedundancy && b.opts.FaultK == 0 && len(added) > 1 {
		bound := b.p.T1 * b.opts.Metric.Weight(b.bins.Ceiling(i))
		pairs := FindRedundantPairs(cg.H, added, b.p.T1, bound)
		b.stats.RemovedRedundant += RemoveNonMIS(b.sp, added, pairs, mis.Greedy)
	}
}

func (b *builder) absorbSelectStats(st SelectStats) {
	b.stats.AlreadyInSpanner += st.AlreadyInSpanner
	b.stats.SameCluster += st.SameCluster
	b.stats.Covered += st.Covered
	b.stats.Candidates += st.Candidates
	if st.MaxPerCluster > b.stats.MaxQueryEdgesPerCluster {
		b.stats.MaxQueryEdgesPerCluster = st.MaxPerCluster
	}
}

// NeedsEdge is the query-answering rule shared by the sequential and
// distributed implementations: edge q must be added unless graph h already
// contains a t-path (faultK = 0), or k+1 disjoint t-paths under the given
// fault mode (faultK = k > 0, the §1.6.1 extension). For faultK = 0
// callers pass the frozen cluster graph H; for faultK > 0 they must pass
// the partial spanner itself, because disjointness on H does not certify
// disjointness in G'. Both searches stay inside the metric ball of radius
// t·w(q) around the endpoints, so the computation remains local (Theorem 9).
func NeedsEdge(h *graph.Graph, q EdgeInfo, t float64, faultK int, mode fault.Mode) bool {
	bound := t * q.W
	if faultK == 0 {
		return !h.ReachableWithin(q.U, q.V, bound)
	}
	return !fault.DisjointPathsAtLeast(h, q.U, q.V, bound, faultK+1, mode)
}

// RemoveNonMIS builds the conflict graph over added edges from the given
// redundant pairs, computes an MIS with the supplied backend, and removes
// from sp every conflicted edge outside the MIS. It returns the number of
// removed edges. Removed edges form an independent set's complement within
// the conflict graph, so every removed edge retains a surviving mutually
// redundant counterpart — the property Theorem 10's proof needs. Exported
// because the distributed implementation runs the identical removal rule
// with its own (round-counted) MIS backend.
func RemoveNonMIS(sp *graph.Graph, added []EdgeInfo, pairs [][2]int, misFn func([][]int) []bool) int {
	if len(pairs) == 0 {
		return 0
	}
	adj := make([][]int, len(added))
	for _, p := range pairs {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
	}
	inMIS := misFn(adj)
	removed := 0
	for i, e := range added {
		if len(adj[i]) > 0 && !inMIS[i] {
			sp.RemoveEdge(e.U, e.V)
			removed++
		}
	}
	return removed
}

// phaseEager is the non-lazy ablation arm: candidates are tested one by one
// with exact queries on the live spanner (cover filtering still applies so
// the comparison isolates the lazy-update ingredient).
func (b *builder) phaseEager(edges []EdgeInfo) {
	sort.Slice(edges, func(x, y int) bool {
		a, c := edges[x], edges[y]
		if a.W != c.W {
			return a.W < c.W
		}
		if a.U != c.U {
			return a.U < c.U
		}
		return a.V < c.V
	})
	for _, e := range edges {
		if b.sp.HasEdge(e.U, e.V) {
			b.stats.AlreadyInSpanner++
			continue
		}
		if !b.opts.DisableCoveredFilter && Covered(b.points, b.sp, e.U, e.V, e.Dist, b.p.Alpha, b.p.Theta) {
			b.stats.Covered++
			continue
		}
		b.stats.Queried++
		if b.sp.ReachableWithin(e.U, e.V, b.p.T*e.W) {
			continue
		}
		b.sp.AddEdge(e.U, e.V, e.W)
		b.stats.Added++
	}
}
