// Package dist implements the distributed relaxed greedy algorithm of the
// paper's §3 on the synchronous message-passing simulator of internal/sim.
//
// Lazy updating means every node of a phase works against the spanner
// frozen at the end of the previous phase, so the distributed algorithm
// computes the same per-phase answers as §2 from k-hop-gathered local
// views. Build therefore runs core's phase driver, core.Run, with this
// package's builder as the core.Protocol. The builder supplies what §3
// changes: the cluster cover — an MIS on the "centers within radius"
// derived graph (§3.2.1) with the highest-ID attachment rule, instead of
// sequential peeling — the redundancy-removal MIS, and the communication,
// which Done charges exactly through the sim.Network primitives once each
// phase has run:
//
//   - "…/gather" steps are k-hop flooding gathers (the dominant traffic, as
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
	b := &builder{
		g:      g,
		opts:   opts,
		nw:     sim.NewNetwork(g),
		rng:    rand.New(rand.NewSource(opts.Seed)),
		search: graph.NewSearcher(g.N()),
	}
	res, err := core.Run(points, g, core.Options{Params: opts.Params, Metric: opts.Metric}, b)
	if err != nil {
		return nil, err
	}
	return &Result{
		Spanner:  res.Spanner,
		Params:   res.Params,
		Stats:    res.Stats,
		Rounds:   b.nw.Rounds(),
		Messages: b.nw.Messages(),
		Words:    b.nw.Words(),
		Phases:   b.phases,
		PerStep:  b.nw.PerStep(),
	}, nil
}

// builder is the §3 core.Protocol: it elects the cover and runs the
// redundancy MIS with the configured backend, and charges each phase's
// communication when core reports the phase done.
type builder struct {
	g      *graph.Graph // communication graph = input α-UBG
	opts   Options
	nw     *sim.Network
	rng    *rand.Rand
	search *graph.Searcher
	phases []PhaseCost

	// The MIS work of the phase in flight, charged by Done: the center
	// election's rounds and derived degree sum, and the redundancy MIS's.
	centerRounds, redRounds int
	centerDeg, redDeg       int64
}

// Cover is step (i) (§3.2.1): elect centers as an MIS of the derived graph
// connecting vertices within spanner distance radius, then attach every
// vertex to the highest-ID center in range.
func (b *builder) Cover(sp *graph.Graph, radius float64) *cluster.Cover {
	adj, degSum := b.derivedGraph(sp, radius)
	inMIS, rounds := b.runMIS(adj)
	b.centerRounds, b.centerDeg = rounds, degSum
	var centers []int
	for v, in := range inMIS {
		if in {
			centers = append(centers, v)
		}
	}
	// An MIS is dominating, so attachment cannot fail.
	cov, err := cluster.CoverFromCenters(sp, radius, centers)
	if err != nil {
		panic(fmt.Sprintf("dist: MIS cover not dominating: %v", err))
	}
	return cov
}

// MIS is step (v)'s MIS on the conflict graph over a phase's additions.
func (b *builder) MIS(conflict [][]int) []bool {
	keep, rounds := b.runMIS(conflict)
	b.redRounds, b.redDeg = rounds, 0
	for _, c := range conflict {
		b.redDeg += int64(len(c))
	}
	return keep
}

// Done charges the communication of the phase core just ran and records
// its cost. Phase 0 — PROCESS-SHORT-EDGES (§3.1) — needs only a 1-hop
// gather, since the components of the bin-0 graph are cliques in G
// (Lemma 1), and an announcement of the retained edges. A long-edge phase
// (§3.2) pays the k-hop gather every node uses to see its cluster ball,
// the relayed center-election rounds, the attachment convergecast, the
// assembly and distribution of the cluster graph at the heads, the
// announcement of the lazy additions, and the redundancy MIS rounds.
func (b *builder) Done(bin, edges int, cov *cluster.Cover, kept int) {
	start := b.nw.Rounds()
	pc := PhaseCost{Bin: bin, Edges: edges, GatherK: 1, Added: kept}
	if bin == 0 {
		b.nw.Gather("phase0/gather", 1)
		b.nw.NeighborExchange("update/announce", 2)
	} else {
		k := b.coverHopRadius(cov)
		b.nw.Gather("phase/gather", k)
		for r := 0; r < b.centerRounds; r++ {
			b.nw.DerivedMISRound("mis/centers", b.centerDeg, k)
		}
		b.nw.Convergecast("clustergraph/attach", cov.Center, k, 2)
		b.nw.Convergecast("clustergraph/assemble", cov.Center, k, 3)
		b.nw.Broadcast("clustergraph/distribute", cov.Center, k, 3)
		b.nw.NeighborExchange("update/announce", 2)
		for r := 0; r < b.redRounds; r++ {
			b.nw.DerivedMISRound("mis/redundancy", b.redDeg, k)
		}
		pc.GatherK, pc.MISRounds = k, b.centerRounds
		b.redRounds = 0
	}
	pc.Rounds = b.nw.Rounds() - start
	b.phases = append(b.phases, pc)
}

// derivedGraph connects every pair of vertices within spanner distance
// radius, returning adjacency lists and the degree sum (2× derived edges).
func (b *builder) derivedGraph(sp *graph.Graph, radius float64) ([][]int, int64) {
	n := sp.N()
	adj := make([][]int, n)
	var degSum int64
	for u := 0; u < n; u++ {
		for _, vd := range b.search.Ball(sp, u, radius) {
			if vd.V != u {
				adj[u] = append(adj[u], vd.V)
			}
		}
		degSum += int64(len(adj[u]))
	}
	return adj, degSum
}

// runMIS computes an MIS of a derived graph (the center election's or the
// redundancy conflict graph) with the configured backend, returning
// membership and the derived-round count.
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
