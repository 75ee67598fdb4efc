// Package greedy implements the classical sequential greedy spanner
// algorithm SEQ-GREEDY (paper §1.4, after Das–Narasimhan):
//
//	order edges by non-decreasing weight; for each edge {u,v}, add it to
//	the spanner unless the spanner already contains a uv-path of length
//	at most t·w(u,v).
//
// On complete Euclidean graphs (and, as the paper shows, on α-UBGs) the
// output is a t-spanner with O(1) maximum degree and weight O(w(MST)).
// SEQ-GREEDY is used three ways in this repository: as the strongest
// sequential baseline, as the per-clique solver inside phase 0 of the
// relaxed greedy algorithm (PROCESS-SHORT-EDGES), and as the reference
// implementation differential tests compare against.
package greedy

import (
	"topoctl/internal/graph"
)

// Run processes edges in the given order against the (mutable) spanner sp:
// an edge is added unless sp already contains a path between its endpoints
// of length at most t times the edge weight. Already-present edges are
// skipped. It returns how many edges it added, and allocates nothing beyond
// what AddEdge needs for row growth.
//
// Run is the shared greedy core: SEQ-GREEDY is Run over all edges sorted by
// weight starting from an empty spanner, and phase 0 of the relaxed
// algorithm is Run over each short-edge clique.
func Run(sp *graph.Graph, edges []graph.Edge, t float64) int {
	// One Searcher serves every per-edge query: greedy makes O(m) of them,
	// so sharing the scratch arrays keeps the loop allocation-free.
	s := graph.AcquireSearcher(sp.N())
	defer graph.ReleaseSearcher(s)
	added := 0
	for _, e := range edges {
		if !Accept(s, sp, e, t) {
			continue
		}
		sp.AddEdge(e.U, e.V, e.W)
		added++
	}
	return added
}

// Accept is the greedy edge-acceptance rule in isolation: edge e belongs in
// spanner sp iff sp neither contains it nor t-spans it (no path between its
// endpoints of length at most t·w(e)). Accept does not modify sp; callers
// that accept the edge must add it themselves. It is shared by Run and by
// the incremental repair passes of internal/dynamic, which replay the rule
// over only the edges whose certifying paths a topology change may have
// broken.
//
// The rule only needs existence, not the exact detour length, so it runs
// on the bidirectional existence kernel (Searcher.ReachableWithin), which
// stops at the first meeting within the bound.
func Accept(s *graph.Searcher, sp *graph.Graph, e graph.Edge, t float64) bool {
	if sp.HasEdge(e.U, e.V) {
		return false
	}
	return !s.ReachableWithin(sp, e.U, e.V, t*e.W)
}

// Spanner runs SEQ-GREEDY on g with stretch factor t and returns the
// resulting spanner as a new graph on the same vertex set. g only needs to
// be readable; the spanner itself is always built as a mutable graph.
func Spanner(g graph.Topology, t float64) *graph.Graph {
	// Greedy spanners of the metrics this repository builds on have O(1)
	// maximum degree; pre-reserving a few halfedges per row in one shared
	// slab removes the per-row append growth that otherwise dominates the
	// build's allocation count.
	sp := graph.NewWithDegree(g.N(), 8)
	Run(sp, graph.SortedEdges(g), t)
	return sp
}

// CliqueEdges returns all pairwise edges among the given members, weighted
// by the provided weight function, in canonical greedy order. It is the
// input builder for phase 0: by Lemma 1 every connected component of the
// short-edge graph G_0 induces a clique in G, so all pairwise edges exist in
// the underlying α-UBG.
func CliqueEdges(members []int, weight func(u, v int) float64) []graph.Edge {
	var edges []graph.Edge
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			u, v := members[i], members[j]
			edges = append(edges, graph.NewEdge(u, v, weight(u, v)))
		}
	}
	graph.SortEdgesCanonical(edges)
	return edges
}
