package cluster

import (
	"sort"

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
		for _, v := range cov.Members(ctr) {
			if v != ctr {
				cg.H.AddEdge(ctr, v, cov.Dist[v])
			}
		}
	}

	// Inter-cluster edges, one turn per center a in increasing order. The
	// scratch arrays are stamped with a+1, so no reset runs between turns:
	// crossW[b] is the lightest G'-edge between a's cluster and b's when
	// crossAt[b] == a+1 (condition (ii)), and accAt[b] == a+1 marks {a, b}
	// as already in H.
	crossW := make([]float64, n)
	crossAt := make([]int, n)
	accAt := make([]int, n)
	var crossing []int // the centers b with crossAt[b] == a+1
	type rescuePair struct {
		lo, hi   int
		minCross float64
	}
	var rescue []rescuePair
	s := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(s)
	for _, a := range cov.Centers {
		stamp := a + 1
		crossing = crossing[:0]
		for _, u := range cov.Members(a) {
			for _, h := range gp.Neighbors(u) {
				b := cov.Center[h.To]
				switch {
				case b == a:
				case crossAt[b] != stamp:
					crossAt[b], crossW[b] = stamp, h.W
					crossing = append(crossing, b)
				case h.W < crossW[b]:
					crossW[b] = h.W
				}
			}
		}
		// A pair accepted on its smaller center's turn is not offered
		// again. H's row of a holds a's members and the partners accepted
		// so far; Lemma 6 keeps it short.
		for _, h := range cg.H.Neighbors(a) {
			accAt[h.To] = stamp
		}
		// One bounded Dijkstra per center discovers condition (i) pairs
		// (centers within distance w) and the in-range condition (ii)
		// pairs; the weight is this turn's distance.
		for _, vd := range s.Ball(gp, a, crossBound) {
			b := vd.V
			if b == a || !cov.IsCenter(b) || accAt[b] == stamp {
				continue
			}
			if vd.D <= w || crossAt[b] == stamp {
				accAt[b] = stamp
				cg.addInter(min(a, b), max(a, b), vd.D)
			}
		}
		// A crossing pair has now had both turns; if neither accepted it,
		// its center distance exceeds crossBound (possible only via long
		// phase-0 edges) and it goes to the rescue pass.
		for _, b := range crossing {
			if b < a && accAt[b] != stamp {
				rescue = append(rescue, rescuePair{lo: b, hi: a, minCross: crossW[b]})
			}
		}
	}
	// Rescue pass, in (lo, hi) order so H's rows come out the same on every
	// run.
	sort.Slice(rescue, func(i, j int) bool {
		if rescue[i].lo != rescue[j].lo {
			return rescue[i].lo < rescue[j].lo
		}
		return rescue[i].hi < rescue[j].hi
	})
	for _, p := range rescue {
		bound := (crossBound - w) + p.minCross
		if rescueBound > 0 && bound > rescueBound {
			bound = rescueBound
		}
		if d, ok := s.DijkstraTarget(gp, p.lo, p.hi, bound); ok {
			cg.addInter(p.lo, p.hi, d)
		}
	}
	return cg
}

// addInter inserts the inter-cluster edge {a, b} into H and updates the
// Lemma 5 and 6 counters.
func (cg *ClusterGraph) addInter(a, b int, w float64) {
	cg.H.AddEdge(a, b, w)
	cg.InterEdges++
	if w > cg.MaxInterWeight {
		cg.MaxInterWeight = w
	}
}

// MaxInterDegree returns the maximum number of inter-cluster edges incident
// to any single center (the Lemma 6 quantity).
func (cg *ClusterGraph) MaxInterDegree() int {
	max := 0
	for _, ctr := range cg.Cover.Centers {
		deg := 0
		for _, h := range cg.H.Neighbors(ctr) {
			if cg.Cover.IsCenter(h.To) {
				deg++
			}
		}
		if deg > max {
			max = deg
		}
	}
	return max
}
