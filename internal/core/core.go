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
	// packed on the partial spanner, not the cluster graph — see needsEdge.
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
	// (always already t-spanned through their center; paper §2.2.2).
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
	return Run(points, g, opts, sequential{})
}

// Protocol is what the distributed algorithm (§3) changes in the phase
// loop: lazy updating makes every other step of a phase a local
// computation on the spanner frozen at the end of the previous phase, so
// the §2 and §3 builds share one driver, Run, and differ only here.
type Protocol interface {
	// Cover builds the step-(i) cluster cover of the frozen spanner sp
	// into cov, reusing its storage: Run passes the same cover every
	// phase of a build.
	Cover(sp *graph.Graph, radius float64, cov *cluster.Cover)
	// MIS returns a maximal independent set of the step-(v) conflict
	// graph over a phase's additions. Run calls it only when the phase
	// has a mutually redundant pair, after that phase's Cover.
	MIS(conflict [][]int) []bool
	// Done reports a finished non-empty phase, once per bin in bin order:
	// the bin, its input edge count, the cover its steps ran on (nil for
	// bin 0 and for EagerUpdates phases, which build none), and how many
	// of its edges the spanner kept after redundancy removal.
	Done(bin, edges int, cov *cluster.Cover, kept int)
}

// sequential is §2's protocol: greedy peeling, the greedy MIS, and no
// accounting.
type sequential struct{}

func (sequential) Cover(sp *graph.Graph, radius float64, cov *cluster.Cover) {
	cluster.GreedyCover(sp, radius, cov)
}
func (sequential) MIS(conflict [][]int) []bool        { return mis.Greedy(conflict) }
func (sequential) Done(int, int, *cluster.Cover, int) {}

// Run is the phase driver of both builds: it validates the input, bins the
// edges, runs phase 0 and then steps (i)–(v) of every non-empty bin, with
// the cover, the redundancy MIS and the per-phase report left to proto.
func Run(points []geom.Point, g *graph.Graph, opts Options, proto Protocol) (*Result, error) {
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
		proto:  proto,
	}
	if opts.BinRatio > 1 {
		b.p.R = opts.BinRatio
	}
	b.run()
	return &Result{Spanner: b.sp, Params: b.p, Bins: b.bins, Stats: b.stats}, nil
}

// builder carries the mutable state of one build. cov, cg and redundant
// are per-phase structures whose storage the build's phases share, so a
// phase allocates in proportion to its bin, not to n. They are per build,
// never package-level: builds run in parallel.
type builder struct {
	points    []geom.Point
	g         *graph.Graph // input α-UBG, Euclidean weights
	opts      Options
	p         Params
	sp        *graph.Graph // output spanner, metric weights
	bins      Bins
	stats     Stats
	proto     Protocol
	cov       cluster.Cover
	cg        cluster.ClusterGraph
	redundant redundancyScan
}

func (b *builder) run() {
	n := b.g.N()
	b.bins = NewBins(n, b.p)
	b.stats.Phases = b.bins.M + 1

	// Distribute edges into bins by Euclidean length.
	byBin := binEdges(b.g, b.bins, b.opts.Metric)
	b.stats.EdgesTotal = b.g.M()
	b.stats.EdgesShort = len(byBin[0])

	if len(byBin[0]) > 0 {
		added := phase0(b.points, b.sp, byBin[0], b.p.T, b.opts.Metric, b.opts.FaultK, b.opts.faultMode())
		b.stats.Added += added
		b.proto.Done(0, len(byBin[0]), nil, added)
	}

	// Remaining bins in increasing order, skipping empty ones (pure
	// optimization: an empty phase performs no queries and no updates).
	for i := 1; i < len(byBin); i++ {
		if len(byBin[i]) > 0 {
			b.stats.NonEmptyPhases++
			cov, kept := b.phase(i, byBin[i])
			b.proto.Done(i, len(byBin[i]), cov, kept)
		}
	}
}

// binEdges distributes the edges of g (Euclidean weights) into the bin
// schedule, annotating each with its metric weight: byBin[i] holds bin i's
// edges, for i in [0, bins.M]. Edge order within a bin is irrelevant (every
// consumer sorts or groups deterministically), so the unsorted edge
// enumeration suffices.
func binEdges(g *graph.Graph, bins Bins, m Metric) [][]EdgeInfo {
	byBin := make([][]EdgeInfo, bins.M+1)
	for _, e := range g.EdgesUnordered() {
		i := bins.Index(e.W)
		byBin[i] = append(byBin[i], EdgeInfo{U: e.U, V: e.V, Dist: e.W, W: m.Weight(e.W)})
	}
	return byBin
}

// phase0 implements PROCESS-SHORT-EDGES (§2.1): the connected components of
// the bin-0 graph are cliques in G (Lemma 1); each is t-spanned by
// SEQ-GREEDY over its full clique (the k-fault-tolerant greedy when
// faultK > 0). Retained edges are inserted into sp with metric weights;
// the number added is returned.
func phase0(points []geom.Point, sp *graph.Graph, short []EdgeInfo, t float64, m Metric, faultK int, faultMode fault.Mode) int {
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

// phase implements PROCESS-LONG-EDGES (§2.2) for one bin. It returns the
// cover its steps ran on and the number of the bin's edges it kept.
func (b *builder) phase(i int, edges []EdgeInfo) (*cluster.Cover, int) {
	if b.opts.EagerUpdates {
		return nil, b.phaseEager(edges)
	}

	wPrev := b.opts.Metric.Weight(b.bins.Ceiling(i - 1)) // W_{i-1}, metric units
	radius := b.p.Delta * wPrev
	crossBound := (2*b.p.Delta + 1) * wPrev

	// Step (i): cluster cover of G'_{i-1}.
	cov := &b.cov
	b.proto.Cover(b.sp, radius, cov)

	// Step (iii) [built before queries are answered]: cluster graph H_{i-1}.
	// Inter-edges heavier than t·W_i can never serve a query in this phase.
	// When every vertex is its own center, H and G'_{i-1} agree on every
	// distance up to t·W_i: every H edge weighs a G' distance, and every
	// G' edge whose G' distance is within t·W_i is an H edge at that
	// distance. Every query bound t·w(q) and the redundancy bound t1·W_i
	// are within t·W_i, so such a phase reads G'_{i-1} itself. So do
	// fault-tolerant builds, which query G' and skip step (v).
	h := b.sp
	if len(cov.Centers) < b.sp.N() && b.opts.FaultK == 0 {
		rescueBound := b.p.T * b.opts.Metric.Weight(b.bins.Ceiling(i))
		h = cluster.BuildClusterGraph(b.sp, cov, wPrev, crossBound, rescueBound, &b.cg).H
	}

	// Step (ii): select query edges. Fault-tolerant builds disable the
	// covered-edge filter: coverage rests on a single spanner edge {u,z},
	// a single point of failure.
	queries, st := selectQueries(b.points, b.sp, cov, edges, selectOpts{
		T: b.p.T, Theta: b.p.Theta, Alpha: b.p.Alpha,
		DisableCoveredFilter: b.opts.DisableCoveredFilter || b.opts.FaultK > 0,
		DisableQueryFilter:   b.opts.DisableQueryFilter,
		PerPairExtra:         b.opts.FaultK,
	})
	b.absorbSelectStats(st)

	// Step (iv): answer shortest path queries on h; lazy updates — the
	// spanner is only modified after every query has been answered.
	// Fault-tolerant builds pack disjoint paths on the partial spanner
	// itself: edge-disjoint H-paths do not certify edge-disjoint G'-paths
	// (distinct H edges can expand to overlapping G' segments).
	var added []EdgeInfo
	for _, q := range queries {
		b.stats.Queried++
		if !needsEdge(h, q, b.p.T, b.opts.FaultK, b.opts.faultMode()) {
			continue
		}
		added = append(added, q)
	}

	// Step (v), measured on h before the additions reach the spanner (h
	// may be G'_{i-1} itself): find the mutually redundant edges among
	// this phase's additions. Skipped for fault-tolerant builds: a removed
	// edge relies on exactly one surviving counterpart, a single point of
	// failure.
	var pairs [][2]int
	if !b.opts.DisableRedundancy && b.opts.FaultK == 0 && len(added) > 1 {
		bound := b.p.T1 * b.opts.Metric.Weight(b.bins.Ceiling(i))
		pairs = b.redundant.pairs(h, added, b.p.T1, bound)
	}
	for _, e := range added {
		b.sp.AddEdge(e.U, e.V, e.W)
		b.stats.Added++
	}
	removed := removeNonMIS(b.sp, added, pairs, b.proto.MIS)
	b.stats.RemovedRedundant += removed
	return cov, len(added) - removed
}

func (b *builder) absorbSelectStats(st selectStats) {
	b.stats.AlreadyInSpanner += st.AlreadyInSpanner
	b.stats.SameCluster += st.SameCluster
	b.stats.Covered += st.Covered
	b.stats.Candidates += st.Candidates
	if st.MaxPerCluster > b.stats.MaxQueryEdgesPerCluster {
		b.stats.MaxQueryEdgesPerCluster = st.MaxPerCluster
	}
}

// needsEdge is the query-answering rule of step (iv): edge q must be
// added unless graph h already contains a t-path (faultK = 0), or k+1
// disjoint t-paths under the given fault mode (faultK = k > 0, the §1.6.1
// extension). For faultK = 0 callers pass the frozen cluster graph H (or
// the partial spanner, in a phase whose cover is all singletons); for
// faultK > 0 they must pass the partial spanner itself, because
// disjointness on H does not certify disjointness in G'. Both searches
// stay inside the metric ball of radius t·w(q) around the endpoints, so
// the computation remains local (Theorem 9).
func needsEdge(h *graph.Graph, q EdgeInfo, t float64, faultK int, mode fault.Mode) bool {
	bound := t * q.W
	if faultK == 0 {
		return !h.ReachableWithin(q.U, q.V, bound)
	}
	return !fault.DisjointPathsAtLeast(h, q.U, q.V, bound, faultK+1, mode)
}

// removeNonMIS builds the conflict graph over added edges from the given
// redundant pairs, computes an MIS with the supplied backend, and removes
// from sp every conflicted edge outside the MIS. It returns the number of
// removed edges. Removed edges form an independent set's complement within
// the conflict graph, so every removed edge retains a surviving mutually
// redundant counterpart — the property Theorem 10's proof needs.
func removeNonMIS(sp *graph.Graph, added []EdgeInfo, pairs [][2]int, misFn func([][]int) []bool) int {
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
// the comparison isolates the lazy-update ingredient). It returns the
// number of edges added.
func (b *builder) phaseEager(edges []EdgeInfo) int {
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
	added := 0
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
		added++
	}
	return added
}
