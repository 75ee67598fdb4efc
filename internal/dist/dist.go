// Package dist implements the distributed relaxed greedy algorithm of the
// paper's §3 on the synchronous message-passing simulator of internal/sim.
//
// The local computation per phase is intentionally shared with the
// sequential implementation (core.Phase0, core.SelectQueries,
// core.NeedsEdge, core.FindRedundantPairs, core.RemoveNonMIS): lazy
// updating means every node of a phase works against the spanner frozen at
// the end of the previous phase, so the distributed algorithm computes the
// same per-phase answers from k-hop-gathered local views. What differs from
// §2 is the cluster-cover construction — an MIS on the "centers within
// radius" derived graph (§3.2.1) with the highest-ID attachment rule,
// instead of sequential peeling — and, of course, the communication, which
// this package charges exactly through the sim.Network primitives:
//
//   - "gather/…" steps are k-hop flooding gathers (the dominant traffic, as
//     the paper's information-gathering structure predicts);
//   - "mis/…" steps are distributed MIS rounds on derived graphs, relayed
//     over the communication graph (Luby's algorithm by default, the
//     deterministic greedy reference when Options.UseGreedyMIS is set);
//   - "clustergraph/…" steps are the convergecast/broadcast flows that
//     assemble the Das–Narasimhan cluster graph at the cluster heads;
//   - "update/…" steps announce lazy spanner updates at phase end.
//
// Empty bins cost no rounds: no node has a query to initiate, so no
// protocol step runs.
package dist

import (
	"fmt"
	"math/rand"

	"topoctl/internal/cluster"
	"topoctl/internal/core"
	"topoctl/internal/fault"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/mis"
	"topoctl/internal/sim"
)

// Options configures a distributed build.
type Options struct {
	// Params are the derived algorithm constants (see core.NewParams).
	Params core.Params
	// Metric is the edge-weight metric (default Euclidean).
	Metric core.Metric
	// Seed drives the randomized MIS; runs are deterministic under a fixed
	// seed.
	Seed int64
	// UseGreedyMIS substitutes the deterministic greedy MIS for Luby's
	// randomized algorithm — the sequential reference backend used by
	// differential tests and the backend-comparison example.
	UseGreedyMIS bool
}

// PhaseCost is the communication cost of one non-empty phase.
type PhaseCost struct {
	// Bin is the weight-bin index of the phase.
	Bin int
	// Edges is the number of input edges in the bin.
	Edges int
	// GatherK is the flooding depth of the phase's k-hop gather.
	GatherK int
	// MISRounds is the number of derived-graph MIS rounds consumed by the
	// cluster-center election.
	MISRounds int
	// Rounds is the total communication rounds the phase consumed.
	Rounds int
	// Added is the number of spanner edges the phase added.
	Added int
}

// Result is a completed distributed build.
type Result struct {
	// Spanner is the output G' with weights in the chosen metric.
	Spanner *graph.Graph
	// Params echoes the constants used.
	Params core.Params
	// Stats reports the same work counters as the sequential build.
	Stats core.Stats
	// Rounds, Messages and Words are the totals charged by the simulator.
	Rounds   int
	Messages int64
	Words    int64
	// Phases reports per-phase costs for every non-empty bin, in phase
	// order.
	Phases []PhaseCost
	// PerStep breaks communication down by named protocol step.
	PerStep map[string]*sim.StepCost
}

// Build runs the distributed algorithm on the α-UBG g whose vertices are
// embedded at points (edge weights of g must be Euclidean lengths). The
// spanner it returns carries weights in opts.Metric units.
func Build(points []geom.Point, g *graph.Graph, opts Options) (*Result, error) {
	if err := opts.Params.Validate(); err != nil {
		return nil, err
	}
	if opts.Metric == (core.Metric{}) {
		opts.Metric = core.EuclideanMetric
	}
	if err := opts.Metric.Validate(); err != nil {
		return nil, err
	}
	if len(points) != g.N() {
		return nil, fmt.Errorf("dist: %d points but %d vertices", len(points), g.N())
	}
	b := &builder{
		points: points,
		g:      g,
		opts:   opts,
		p:      opts.Params,
		nw:     sim.NewNetwork(g),
		sp:     graph.New(g.N()),
		rng:    rand.New(rand.NewSource(opts.Seed)),
		search: graph.NewSearcher(g.N()),
	}
	b.run()
	return &Result{
		Spanner:  b.sp,
		Params:   b.p,
		Stats:    b.stats,
		Rounds:   b.nw.Rounds(),
		Messages: b.nw.Messages(),
		Words:    b.nw.Words(),
		Phases:   b.phases,
		PerStep:  b.nw.PerStep(),
	}, nil
}

// builder carries the mutable state of one distributed build.
type builder struct {
	points []geom.Point
	g      *graph.Graph // communication graph = input α-UBG
	opts   Options
	p      core.Params
	nw     *sim.Network
	sp     *graph.Graph // output spanner, metric weights
	rng    *rand.Rand
	search *graph.Searcher
	stats  core.Stats
	phases []PhaseCost
}

func (b *builder) run() {
	n := b.g.N()
	bins := core.NewBins(n, b.p)
	b.stats.Phases = bins.M + 1

	byBin := core.BinEdges(b.g, bins, b.opts.Metric)
	b.stats.EdgesTotal = b.g.M()
	b.stats.EdgesShort = len(byBin[0])

	// Phase 0 — PROCESS-SHORT-EDGES (§3.1): the components of the bin-0
	// graph are cliques in G (Lemma 1), so a 1-hop gather suffices for
	// every member to know its whole component; each component then runs
	// the identical local greedy computation and announces retained edges.
	if len(byBin[0]) > 0 {
		start := b.nw.Rounds()
		b.nw.Gather("phase0/gather", 1)
		added := core.Phase0(b.points, b.sp, byBin[0], b.p.T, b.opts.Metric, 0, fault.EdgeFaults)
		b.nw.NeighborExchange("update/announce", 2)
		b.stats.Added += added
		b.phases = append(b.phases, PhaseCost{
			Bin: 0, Edges: len(byBin[0]), GatherK: 1,
			Rounds: b.nw.Rounds() - start, Added: added,
		})
	}

	// Remaining non-empty bins in increasing order (empty bins run no
	// protocol step).
	for i := 1; i < len(byBin); i++ {
		if len(byBin[i]) > 0 {
			b.stats.NonEmptyPhases++
			b.phase(i, bins, byBin[i])
		}
	}
}

// phase runs PROCESS-LONG-EDGES (§3.2) for one non-empty bin.
func (b *builder) phase(i int, bins core.Bins, edges []core.EdgeInfo) {
	start := b.nw.Rounds()
	wPrev := b.opts.Metric.Weight(bins.Ceiling(i - 1)) // W_{i-1}, metric units
	radius := b.p.Delta * wPrev
	crossBound := (2*b.p.Delta + 1) * wPrev
	rescueBound := b.p.T * b.opts.Metric.Weight(bins.Ceiling(i))

	// Step (i) — cluster cover (§3.2.1): elect centers as an MIS of the
	// derived graph connecting vertices within spanner distance radius,
	// then attach every vertex to the highest-ID center in range.
	adj, degSum := b.derivedGraph(radius)
	inMIS, misRounds := b.runMIS(adj)
	var centers []int
	for v, in := range inMIS {
		if in {
			centers = append(centers, v)
		}
	}
	// An MIS is dominating, so attachment cannot fail.
	cov, err := cluster.CoverFromCenters(b.sp, radius, centers)
	if err != nil {
		panic(fmt.Sprintf("dist: MIS cover not dominating: %v", err))
	}
	gatherK := b.coverHopRadius(cov)

	// Communication for steps (i)–(ii): the k-hop gather every node uses
	// to see its cluster ball, the relayed MIS rounds, and the attachment
	// convergecast to the elected heads.
	b.nw.Gather("phase/gather", gatherK)
	for r := 0; r < misRounds; r++ {
		b.nw.DerivedMISRound("mis/centers", degSum, gatherK)
	}
	b.nw.Convergecast("clustergraph/attach", cov.Center, gatherK, 2)

	// Step (iii) — cluster graph H_{i-1} assembled at the heads via
	// convergecast of member adjacency and broadcast of the result.
	cg := cluster.BuildClusterGraph(b.sp, cov, wPrev, crossBound, rescueBound)
	b.nw.Convergecast("clustergraph/assemble", cov.Center, gatherK, 3)
	b.nw.Broadcast("clustergraph/distribute", cov.Center, gatherK, 3)
	if d := cg.MaxInterDegree(); d > b.stats.MaxInterDegree {
		b.stats.MaxInterDegree = d
	}

	// Step (ii) — query-edge selection, identical local rule to §2 so the
	// two heads of a cluster pair select the same edge independently.
	queries, st := core.SelectQueries(b.points, b.sp, cov, edges, core.SelectOpts{
		T: b.p.T, Theta: b.p.Theta, Alpha: b.p.Alpha,
	})
	b.absorbSelectStats(st)

	// Step (iv) — queries answered on the frozen cluster graph; lazy
	// updates mean every query of the phase is answered in parallel, then
	// additions are announced in one exchange.
	var added []core.EdgeInfo
	for _, q := range queries {
		b.stats.Queried++
		if core.NeedsEdge(cg.H, q, b.p.T, 0, fault.EdgeFaults) {
			added = append(added, q)
		}
	}
	for _, e := range added {
		b.sp.AddEdge(e.U, e.V, e.W)
		b.stats.Added++
	}
	b.nw.NeighborExchange("update/announce", 2)

	// Step (v) — redundancy removal via an MIS on the conflict graph over
	// this phase's additions.
	if len(added) > 1 {
		bound := b.p.T1 * b.opts.Metric.Weight(bins.Ceiling(i))
		pairs := core.FindRedundantPairs(cg.H, added, b.p.T1, bound)
		if len(pairs) > 0 {
			conflict := make([][]int, len(added))
			var conflictDeg int64
			for _, p := range pairs {
				conflict[p[0]] = append(conflict[p[0]], p[1])
				conflict[p[1]] = append(conflict[p[1]], p[0])
				conflictDeg += 2
			}
			keep, redRounds := b.runMIS(conflict)
			for r := 0; r < redRounds; r++ {
				b.nw.DerivedMISRound("mis/redundancy", conflictDeg, gatherK)
			}
			b.stats.RemovedRedundant += core.RemoveNonMIS(b.sp, added, pairs, func([][]int) []bool { return keep })
		}
	}

	b.phases = append(b.phases, PhaseCost{
		Bin: i, Edges: len(edges), GatherK: gatherK, MISRounds: misRounds,
		Rounds: b.nw.Rounds() - start, Added: len(added) - countRemoved(added, b.sp),
	})
}

// countRemoved counts how many of the phase's additions were subsequently
// removed by redundancy removal (absent from the spanner now).
func countRemoved(added []core.EdgeInfo, sp *graph.Graph) int {
	removed := 0
	for _, e := range added {
		if !sp.HasEdge(e.U, e.V) {
			removed++
		}
	}
	return removed
}

// derivedGraph connects every pair of vertices within spanner distance
// radius, returning adjacency lists and the degree sum (2× derived edges).
func (b *builder) derivedGraph(radius float64) ([][]int, int64) {
	n := b.sp.N()
	adj := make([][]int, n)
	var degSum int64
	for u := 0; u < n; u++ {
		for _, vd := range b.search.Ball(b.sp, u, radius) {
			if vd.V != u {
				adj[u] = append(adj[u], vd.V)
			}
		}
		degSum += int64(len(adj[u]))
	}
	return adj, degSum
}

// runMIS computes an MIS of the derived graph with the configured backend,
// returning membership and the derived-round count.
func (b *builder) runMIS(adj [][]int) ([]bool, int) {
	if b.opts.UseGreedyMIS {
		return mis.Greedy(adj), 1
	}
	res := mis.Luby(adj, b.rng)
	return res.InMIS, res.Rounds
}

// coverHopRadius measures the flooding depth the phase actually needs: the
// maximum hop distance (in the communication graph) from any cluster head
// to one of its members. Clusters are metric balls of the partial spanner,
// so this stays small — the locality the paper's Theorem 9 argues.
func (b *builder) coverHopRadius(cov *cluster.Cover) int {
	maxHop := 1
	for _, c := range cov.Centers {
		if len(cov.Members(c)) <= 1 {
			continue
		}
		// Depth N() is unbounded: no hop distance reaches it.
		for _, vh := range b.search.HopBall(b.g, c, b.g.N()) {
			if cov.Center[vh.V] == c && vh.Hops > maxHop {
				maxHop = vh.Hops
			}
		}
	}
	return maxHop
}

func (b *builder) absorbSelectStats(st core.SelectStats) {
	b.stats.AlreadyInSpanner += st.AlreadyInSpanner
	b.stats.SameCluster += st.SameCluster
	b.stats.Covered += st.Covered
	b.stats.Candidates += st.Candidates
	if st.MaxPerCluster > b.stats.MaxQueryEdgesPerCluster {
		b.stats.MaxQueryEdgesPerCluster = st.MaxPerCluster
	}
}
