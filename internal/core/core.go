package core

import (
	"fmt"
	"slices"
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
	// QueriesOnH counts the fallbacks to the cluster graph H: queries whose
	// t-path in the partial spanner, the first its search met, passes a
	// vertex of a cluster with a second member, and that the rows of H
	// built before them did not answer, so a search on H did (see
	// needsEdge).
	QueriesOnH int
	// DecidedByH counts the QueriesOnH whose edge H added although the
	// partial spanner had a t-path: the queries where H changes the answer.
	DecidedByH int
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
	// CoverVisits sums the phases' Cover.Visits: the per-vertex steps
	// their covers took outside ball searches. A phase visits its
	// short-edge vertices, not n, whether it peels (§2) or attaches to
	// elected centers (§3). It is not a Stats counter, which the two
	// protocols agree on.
	CoverVisits int
	// Searches sums the searches that answer the phases' queries and
	// find their redundant pairs (steps (iv) and (v)), on G' and on H:
	// the work a search bound governs.
	Searches graph.SearchStats
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
	// phase of a build. short lists, in increasing order, the vertices
	// with a spanner edge of weight at most radius (see
	// cluster.PeelCover).
	Cover(sp *graph.Graph, radius float64, short []int, cov *cluster.Cover)
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

func (sequential) Cover(sp *graph.Graph, radius float64, short []int, cov *cluster.Cover) {
	cluster.PeelCover(sp, radius, short, cov)
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
	return &Result{Spanner: b.sp, Params: b.p, Bins: b.bins, Stats: b.stats, CoverVisits: b.coverVisits, Searches: b.searches}, nil
}

// builder carries the mutable state of one build. cov, cg, frozen,
// redundant and selection are per-phase structures whose storage the build's
// phases share, and short is kept across them, so a phase allocates and
// scans in proportion to its bin and its short-edge vertices, not to n.
// They are per build, never package-level: builds run in parallel.
type builder struct {
	points      []geom.Point
	g           *graph.Graph // input α-UBG, Euclidean weights
	opts        Options
	p           Params
	sp          *graph.Graph // output spanner, metric weights
	bins        Bins
	stats       Stats
	coverVisits int
	searches    graph.SearchStats
	proto       Protocol
	cov         cluster.Cover
	cg          cluster.ClusterGraph
	frozen      frozen
	redundant   redundancyScan
	selection   selectScratch
	short       shortEdges
}

func (b *builder) run() {
	n := b.g.N()
	b.bins = newBins(n, b.p)
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
// enumeration suffices. A counting pass sizes every bin, so the bins are
// windows of one slab.
func binEdges(g *graph.Graph, bins Bins, m Metric) [][]EdgeInfo {
	edges := g.EdgesUnordered()
	bin := make([]int32, len(edges))
	start := make([]int, bins.M+2)
	for k, e := range edges {
		bin[k] = int32(bins.index(e.W))
		start[bin[k]+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	slab := make([]EdgeInfo, len(edges))
	byBin := make([][]EdgeInfo, bins.M+1)
	for i := range byBin {
		byBin[i] = slab[start[i]:start[i]:start[i+1]]
	}
	for k, e := range edges {
		byBin[bin[k]] = append(byBin[bin[k]], EdgeInfo{U: e.U, V: e.V, Dist: e.W, W: m.Weight(e.W)})
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
			added += fault.Run(sp, edges, t, faultK, faultMode)
		} else {
			added += greedy.Run(sp, edges, t)
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

	wPrev := b.opts.Metric.Weight(b.bins.ceiling(i - 1)) // W_{i-1}, metric units
	wCur := b.opts.Metric.Weight(b.bins.ceiling(i))      // W_i

	// Step (i): cluster cover of G'_{i-1}, peeled over the vertices with
	// a G'-edge within its radius.
	cov, radius := &b.cov, b.p.Delta*wPrev
	b.proto.Cover(b.sp, radius, b.short.upTo(b.sp, radius), cov)
	b.coverVisits += cov.Visits

	// Step (iii), on demand: the cluster graph H_{i-1}, which steps (iv)
	// and (v) measure on. H-distances are never below G'-distances, and H
	// joins two singleton clusters that a G'-edge joins by an edge no
	// heavier, so G'_{i-1} answers for H wherever its paths avoid the
	// vertices of clusters with a second member (see needsEdge), and H's
	// rows are built only where a search on H reaches. A cover of
	// singletons has no such vertex, so that phase builds no H; neither do
	// fault-tolerant builds, which query G' and skip step (v). Inter-edges
	// heavier than t·W_i can never serve a query in this phase.
	f := &b.frozen
	f.sp, f.cov, f.cg, f.s = b.sp, cov, nil, graph.AcquireSearcher(b.sp.N())
	f.s.ResetStats()
	defer func() {
		st := f.s.Stats()
		b.searches.Searches += st.Searches
		b.searches.Settled += st.Settled
		graph.ReleaseSearcher(f.s)
	}()
	if len(cov.Clustered) > 0 && b.opts.FaultK == 0 {
		b.cg.Start(b.sp, cov, wPrev, (2*b.p.Delta+1)*wPrev, b.p.T*wCur)
		f.cg = &b.cg
	}

	// Step (ii): select query edges. Fault-tolerant builds disable the
	// covered-edge filter: coverage rests on a single spanner edge {u,z},
	// a single point of failure.
	queries, st := selectQueries(b.points, b.sp, cov, edges, selectOpts{
		T: b.p.T, Theta: b.p.Theta, Alpha: b.p.Alpha,
		DisableCoveredFilter: b.opts.DisableCoveredFilter || b.opts.FaultK > 0,
		DisableQueryFilter:   b.opts.DisableQueryFilter,
		PerPairExtra:         b.opts.FaultK,
		Scratch:              &b.selection,
	})
	b.absorbSelectStats(st)

	// Step (iv): answer shortest path queries; lazy updates — the spanner
	// is only modified after every query has been answered.
	var added []EdgeInfo
	for _, q := range queries {
		b.stats.Queried++
		if b.needsEdge(f, q) {
			added = append(added, q)
		}
	}

	// Step (v), measured on H_{i-1} before the additions reach the
	// spanner: find the mutually redundant edges among this phase's
	// additions, with balls no wider than the pair test can use. Skipped
	// for fault-tolerant builds: a removed edge relies on exactly one
	// surviving counterpart, a single point of failure.
	var pairs [][2]int
	if !b.opts.DisableRedundancy && b.opts.FaultK == 0 && len(added) > 1 {
		bound := pairRadius(added, b.p.T1)
		pairs = b.redundant.pairs(b.sp.N(), added, b.p.T1, func(v int) []graph.VertexDist {
			return f.ballOf(v, bound)
		})
	}
	for _, e := range added {
		b.sp.AddEdge(e.U, e.V, e.W)
		b.stats.Added++
	}
	removed := removeNonMIS(b.sp, added, pairs, b.proto.MIS)
	b.stats.RemovedRedundant += removed
	for _, e := range added {
		if removed == 0 || b.sp.HasEdge(e.U, e.V) {
			b.short.push(graph.Edge{U: e.U, V: e.V, W: e.W})
		}
	}
	return cov, len(added) - removed
}

// shortEdges tracks, across a build's phases, the vertices with a spanner
// edge within the cover radius. The radius only grows from phase to
// phase, and a spanner edge stays once its phase is over: redundancy
// removal deletes only the phase's own additions, which the phase pushes
// after it. So the set only grows, and each spanner edge is looked at
// once when it joins the spanner and once when the radius passes it.
type shortEdges struct {
	// pending is a min-heap, by weight, of the spanner edges heavier than
	// the last radius; nil until the first phase seeds it.
	pending []graph.Edge
	// list holds, in increasing order, the vertices with a spanner edge
	// within the last radius; in marks them.
	list  []int
	in    []bool
	fresh []int
}

// upTo moves the spanner edges of weight at most radius out of the heap
// and returns the vertices with such an edge, in increasing order. The
// first call seeds the heap with sp's edges: phase 0's.
func (s *shortEdges) upTo(sp *graph.Graph, radius float64) []int {
	if s.in == nil {
		s.in = make([]bool, sp.N())
		for _, e := range sp.EdgesUnordered() {
			s.push(e)
		}
	}
	s.fresh = s.fresh[:0]
	for len(s.pending) > 0 && s.pending[0].W <= radius {
		e := s.pop()
		for _, v := range [2]int{e.U, e.V} {
			if !s.in[v] {
				s.in[v] = true
				s.fresh = append(s.fresh, v)
			}
		}
	}
	if len(s.fresh) > 0 {
		s.list = append(s.list, s.fresh...)
		slices.Sort(s.list)
	}
	return s.list
}

// push adds a spanner edge to the heap.
func (s *shortEdges) push(e graph.Edge) {
	h := append(s.pending, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].W <= h[i].W {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	s.pending = h
}

// pop removes and returns the heap's lightest edge.
func (s *shortEdges) pop() graph.Edge {
	h := s.pending
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		lo := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].W < h[lo].W {
				lo = c
			}
		}
		if lo == i {
			break
		}
		h[i], h[lo] = h[lo], h[i]
		i = lo
	}
	s.pending = h
	return top
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

// frozen is what a phase's steps (iv) and (v) measure on: the partial
// spanner G'_{i-1} and, when the cover has a cluster with a second member,
// the cluster graph H_{i-1}, whose rows are built on demand (cg is nil
// otherwise, and H agrees with G' within t·W_i).
type frozen struct {
	sp   *graph.Graph
	cov  *cluster.Cover
	cg   *cluster.ClusterGraph
	s    *graph.Searcher
	path []int
	ball []graph.VertexDist
}

// searchH runs a Dijkstra on H from src within bound, completing each
// vertex's row just before the search expands it, so it reads H as
// BuildClusterGraph builds it while building only the rows it reaches.
// visit sees every vertex the search settles, in settling order, and
// returns false to stop expanding.
func (f *frozen) searchH(src int, bound float64, visit func(v int, d float64) bool) {
	stop := false
	f.s.DijkstraPruned(f.cg.H, src, bound, func(v int, d float64) bool {
		if stop = stop || !visit(v, d); stop {
			return false
		}
		f.cg.Row(v)
		return true
	})
}

// ballOf returns v's ball of radius bound in H_{i-1}, for step (v)'s
// redundancy scan (bound = pairRadius). By needsEdge's two facts, a G'
// ball that holds no clustered vertex is H's ball, at the same distances;
// any other is searched on H.
func (f *frozen) ballOf(v int, bound float64) []graph.VertexDist {
	ball := f.s.Ball(f.sp, v, bound)
	if f.cg == nil || !slices.ContainsFunc(ball, func(vd graph.VertexDist) bool { return f.cov.InCluster(vd.V) }) {
		return ball
	}
	f.ball = f.ball[:0]
	f.searchH(v, bound, func(x int, d float64) bool {
		f.ball = append(f.ball, graph.VertexDist{V: x, D: d})
		return true
	})
	return f.ball
}

// needsEdge is the query-answering rule of step (iv): edge q must be
// added unless H_{i-1} holds a t-path between its endpoints (faultK = 0),
// or unless the partial spanner packs k+1 disjoint t-paths under the fault
// mode (faultK = k > 0, the §1.6.1 extension; disjointness on H does not
// certify disjointness in G', so those builds never ask H).
//
// G' answers for H, exactly, by two facts:
//   - every H edge weighs a G' distance, so H-distances are never below
//     G'-distances (Lemma 7): with no G' t-path there is no H t-path, and
//     q is needed;
//   - a G'-edge joining two singleton clusters crosses them, so H joins
//     them by an edge no heavier (condition (ii), its rescue capped at
//     t·W_i >= t·w(q)): a G' t-path through singletons only is an H
//     t-path, and q is not needed.
//
// So q falls back to H only when a G' t-path passes a clustered vertex:
// the search on G' stops at the first t-path it meets, not the shortest,
// and the search on H builds the rows it settles. Before G' is searched,
// the rows built so far are: they carry H's edges and weights, so a t-path
// among them is one in H, and in a clustered region, where earlier
// fallbacks built them, they answer for less than a search on G' costs.
// Every search stays inside the metric ball of radius t·w(q) around the
// endpoints, so the computation remains local (Theorem 9).
func (b *builder) needsEdge(f *frozen, q EdgeInfo) bool {
	bound := b.p.T * q.W
	switch {
	case b.opts.FaultK > 0:
		return !fault.DisjointPathsAtLeast(f.sp, q.U, q.V, bound, b.opts.FaultK+1, b.opts.faultMode())
	case f.cg == nil:
		return !f.s.ReachableWithin(f.sp, q.U, q.V, bound)
	}
	if f.s.ReachableWithin(f.cg.H, q.U, q.V, bound) {
		return false
	}
	var ok bool
	f.path, ok = f.s.AppendPathWithin(f.path[:0], f.sp, q.U, q.V, bound)
	if !ok || !slices.ContainsFunc(f.path, f.cov.InCluster) {
		return !ok
	}
	b.stats.QueriesOnH++
	found := false
	f.searchH(q.U, bound, func(v int, _ float64) bool {
		found = v == q.V
		return !found
	})
	if found {
		return false
	}
	b.stats.DecidedByH++
	return true
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
	w := NewWitness(b.p.Theta)
	added := 0
	for _, e := range edges {
		if b.sp.HasEdge(e.U, e.V) {
			b.stats.AlreadyInSpanner++
			continue
		}
		if !b.opts.DisableCoveredFilter && covered(b.points, b.sp, e.U, e.V, e.Dist, b.p.Alpha, w) {
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
