package cluster

import (
	"topoctl/internal/graph"
)

// ClusterGraph is the Das–Narasimhan approximation H of a partial spanner
// G' (paper §2.2.3, Figure 2). Its vertex set is that of G'; its edges are:
//
//   - intra-cluster edges {a, x} for each cluster center a and member x,
//     weighted sp_{G'}(a, x);
//   - inter-cluster edges {a, b} between centers with either
//     sp_{G'}(a, b) <= W (condition (i)) or some G'-edge crossing the two
//     clusters (condition (ii)), weighted sp_{G'}(a, b).
//
// Lemma 5 bounds every inter-cluster weight by (2δ+1)W; Lemma 7 shows paths
// in H overestimate paths in G' by at most (1+6δ)/(1−2δ); Lemma 8 shows the
// relevant query paths have O(1) hops. All three are validated empirically
// by this package's tests and the F2 experiment.
type ClusterGraph struct {
	// H is the cluster graph itself.
	H *graph.Graph
	// Cover is the cluster cover H was built from.
	Cover *Cover
	// W is the bin width W_{i-1} used for condition (i).
	W float64
	// InterEdges counts inter-cluster edges (for Lemma 6 checks).
	InterEdges int
	// MaxInterWeight is the largest inter-cluster edge weight seen (for
	// Lemma 5 checks).
	MaxInterWeight float64
}

// BuildClusterGraph constructs H for the partial spanner gp under the given
// cover. w is the current bin floor W_{i-1}; crossBound is the Lemma 5
// bound (2δ+1)·W_{i-1} used to truncate the per-center Dijkstra searches.
//
// Lemma 5's bound presumes every G'-edge is no longer than W_{i-1}, but
// phase-0 clique spanners may retain edges up to length α, so a crossing
// pair's center distance can exceed crossBound. The paper's condition (ii)
// is unconditional, so such pairs get a "rescue" point-to-point search
// bounded by (crossBound − w) + (weight of the lightest crossing edge) — a
// valid upper bound on sp(a, b) — further capped by rescueBound: inter-
// edges heavier than rescueBound can never participate in a query answer
// (queries are bounded by t·W_i), so omitting them is sound and keeps the
// construction local. Pass rescueBound <= 0 to disable the cap.
func BuildClusterGraph(gp graph.Topology, cov *Cover, w, crossBound, rescueBound float64) *ClusterGraph {
	n := gp.N()
	cg := &ClusterGraph{H: graph.New(n), Cover: cov, W: w}

	// Intra-cluster edges: center -> member with the cover's recorded
	// shortest-path distance.
	for _, ctr := range cov.Centers {
		for _, v := range cov.Members[ctr] {
			if v != ctr {
				cg.H.AddEdge(ctr, v, cov.Dist[v])
			}
		}
	}

	// Candidate inter-cluster pairs from condition (ii): a G'-edge with
	// endpoints in different clusters; remember the lightest crossing
	// weight for the rescue bound.
	crossing := make(map[[2]int]float64)
	for u := 0; u < n; u++ {
		cu := cov.Center[u]
		for _, h := range gp.Neighbors(u) {
			if u >= h.To {
				continue
			}
			cv := cov.Center[h.To]
			if cu == cv {
				continue
			}
			a, b := cu, cv
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if cur, ok := crossing[key]; !ok || h.W < cur {
				crossing[key] = h.W
			}
		}
	}

	// One bounded Dijkstra per center discovers condition (i) pairs
	// (centers within distance w) and the in-range condition (ii) pairs.
	isCenter := make([]bool, n)
	for _, ctr := range cov.Centers {
		isCenter[ctr] = true
	}
	type interEdge struct {
		a, b int
		w    float64
	}
	var inters []interEdge
	seen := make(map[[2]int]bool)
	s := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(s)
	for _, a := range cov.Centers {
		for _, vd := range s.Ball(gp, a, crossBound) {
			if vd.V == a || !isCenter[vd.V] {
				continue
			}
			lo, hi := a, vd.V
			if lo > hi {
				lo, hi = hi, lo
			}
			key := [2]int{lo, hi}
			if seen[key] {
				continue
			}
			_, isCrossing := crossing[key]
			if vd.D <= w || isCrossing {
				seen[key] = true
				inters = append(inters, interEdge{a: lo, b: hi, w: vd.D})
			}
		}
	}
	// Rescue pass: crossing pairs whose center distance exceeds crossBound
	// (possible only via long phase-0 edges).
	for key, minCross := range crossing {
		if seen[key] {
			continue
		}
		bound := (crossBound - w) + minCross
		if rescueBound > 0 && bound > rescueBound {
			bound = rescueBound
		}
		if d, ok := s.DijkstraTarget(gp, key[0], key[1], bound); ok {
			inters = append(inters, interEdge{a: key[0], b: key[1], w: d})
		}
	}
	for _, e := range inters {
		cg.H.AddEdge(e.a, e.b, e.w)
		cg.InterEdges++
		if e.w > cg.MaxInterWeight {
			cg.MaxInterWeight = e.w
		}
	}
	return cg
}

// Query reports whether H contains a path between x and y of length at most
// bound, and its length if so. This is the approximate shortest-path query
// of §2.2.4: a "yes" is always safe (paths in H are no shorter than in G'),
// and a "no" is at most a (1+6δ)/(1−2δ) overestimate by Lemma 7.
func (cg *ClusterGraph) Query(x, y int, bound float64) (float64, bool) {
	return cg.H.DijkstraTarget(x, y, bound)
}

// MaxInterDegree returns the maximum number of inter-cluster edges incident
// to any single center (the Lemma 6 quantity).
func (cg *ClusterGraph) MaxInterDegree() int {
	isCenter := make([]bool, cg.H.N())
	for _, ctr := range cg.Cover.Centers {
		isCenter[ctr] = true
	}
	max := 0
	for _, ctr := range cg.Cover.Centers {
		deg := 0
		for _, h := range cg.H.Neighbors(ctr) {
			if isCenter[h.To] {
				deg++
			}
		}
		if deg > max {
			max = deg
		}
	}
	return max
}
