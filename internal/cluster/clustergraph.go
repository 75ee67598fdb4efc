package cluster

import (
	"math"

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
//
// H is built one row at a time: Start lays down the intra-cluster edges,
// which complete every member's row, and Row completes a center's row from
// the turns of the centers near it. BuildClusterGraph runs Row for every
// center; a builder runs it only for the centers its searches on H reach.
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

	// The construction's inputs, set by Start.
	gp                      graph.Topology
	crossBound, rescueBound float64

	// Construction scratch, kept across rebuilds. turnAt[a] and rowAt[a]
	// equal build once a's turn has run and a's row is complete. Every
	// turn and every row draws a fresh stamp, and stampAt[b] == stamp
	// marks b for the one in progress: a center whose cluster a G'-edge
	// joins to the turn's (its lightest such edge in crossW[b]), or a
	// neighbor the row already has. Stamps only grow, so nothing is
	// cleared.
	turnAt, rowAt []int
	stampAt       []int
	crossW        []float64
	build, stamp  int
	crossing      []int
	search        *graph.Searcher
	partners      []partner
	partnerSpan   [][2]int // a's partners are partners[partnerSpan[a][0]:partnerSpan[a][1]]
}

// partner is a center that a's turn found: one within crossBound of a, at
// a's distance d (+Inf when out of range), or one whose cluster a G'-edge
// joins to a's, with cross the lightest such edge (+Inf when none).
type partner struct {
	b        int
	d, cross float64
}

// offers reports whether the turn that found p offers the pair to H: a
// center in range that satisfies condition (i) or (ii).
func (p partner) offers(w float64) bool {
	return !math.IsInf(p.d, 1) && (p.d <= w || !math.IsInf(p.cross, 1))
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
//
// H is built into cg, overwriting it and reusing its storage (H's rows keep
// their capacity), and cg is returned; pass nil for a new cluster graph.
func BuildClusterGraph(gp graph.Topology, cov *Cover, w, crossBound, rescueBound float64, cg *ClusterGraph) *ClusterGraph {
	if cg == nil {
		cg = new(ClusterGraph)
	}
	cg.Start(gp, cov, w, crossBound, rescueBound)
	for _, a := range cov.Centers() {
		cg.Row(a)
	}
	return cg
}

// Start readies cg, reusing its storage, to build H for the partial
// spanner gp under cov (w, crossBound and rescueBound are
// BuildClusterGraph's): it adds the intra-cluster edges, with the cover's
// recorded shortest-path distances, so only the centers' rows are left to
// Row.
func (cg *ClusterGraph) Start(gp graph.Topology, cov *Cover, w, crossBound, rescueBound float64) {
	n := gp.N()
	if cg.H != nil && cg.H.N() == n {
		cg.H.Reset()
	} else {
		cg.H = graph.New(n)
	}
	cg.Cover, cg.W, cg.InterEdges, cg.MaxInterWeight = cov, w, 0, 0
	cg.gp, cg.crossBound, cg.rescueBound = gp, crossBound, rescueBound
	if len(cg.turnAt) < n {
		cg.turnAt, cg.rowAt, cg.stampAt = make([]int, n), make([]int, n), make([]int, n)
		cg.crossW, cg.partnerSpan = make([]float64, n), make([][2]int, n)
		cg.build, cg.stamp = 0, 0
		cg.search = graph.NewSearcher(n)
	}
	cg.build++
	cg.partners = cg.partners[:0]
	for _, ctr := range cov.Clustered {
		for _, v := range cov.Members(ctr) {
			if v != ctr {
				cg.H.AddEdge(ctr, v, cov.Dist[v])
			}
		}
	}
}

// Row completes v's row of H: afterwards H.Neighbors(v) holds the edges
// BuildClusterGraph gives v, with the same weights. A member's row is
// complete from Start. A center's inter-cluster partners are the centers
// its turn finds, because a pair H keeps is offered by a turn that found
// it (condition (i) holds within w < crossBound from either end) or it
// crosses (which both turns see). The smaller center's turn adds the
// pairs it offers, so once v's turn has run, and the turns of its partners
// but the larger ones it offers, decide settles the pairs still missing.
func (cg *ClusterGraph) Row(v int) {
	if cg.rowAt[v] == cg.build || !cg.Cover.IsCenter(v) {
		return
	}
	cg.rowAt[v] = cg.build
	cg.turn(v)
	// turn appends to partners, so index rather than range over a slice
	// of it.
	span := cg.partnerSpan[v]
	for k := span[0]; k < span[1]; k++ {
		if p := cg.partners[k]; p.b < v || !p.offers(cg.W) {
			cg.turn(p.b)
		}
	}
	cg.stamp++
	for _, h := range cg.H.Neighbors(v) {
		cg.stampAt[h.To] = cg.stamp
	}
	for k := span[0]; k < span[1]; k++ {
		p := cg.partners[k]
		if cg.stampAt[p.b] == cg.stamp {
			continue // in H already
		}
		if d, ok := cg.decide(v, p); ok {
			cg.addInter(min(v, p.b), max(v, p.b), d)
		}
	}
}

// turn runs center a's turn, once per build: it scans a's cluster for
// G'-edges crossing into other clusters (condition (ii)) and runs one
// bounded Dijkstra from a to find the centers within crossBound. It
// records each center either finds as a's partner, and adds to H the pairs
// with larger centers that it offers: the smaller center's offer decides
// a pair.
func (cg *ClusterGraph) turn(a int) {
	if cg.turnAt[a] == cg.build {
		return
	}
	cg.turnAt[a] = cg.build
	cg.stamp++
	stamp, cov := cg.stamp, cg.Cover
	stampAt, crossW := cg.stampAt, cg.crossW
	crossing := cg.crossing[:0] // the centers b with stampAt[b] == stamp
	for _, u := range cov.Members(a) {
		for _, h := range cg.gp.Neighbors(u) {
			b := cov.Center[h.To]
			switch {
			case b == a:
			case stampAt[b] != stamp:
				stampAt[b], crossW[b] = stamp, h.W
				crossing = append(crossing, b)
			case h.W < crossW[b]:
				crossW[b] = h.W
			}
		}
	}
	start := len(cg.partners)
	for _, vd := range cg.search.Ball(cg.gp, a, cg.crossBound) {
		b := vd.V
		if b == a || !cov.IsCenter(b) {
			continue
		}
		p := partner{b: b, d: vd.D, cross: math.Inf(1)}
		if stampAt[b] == stamp {
			p.cross = crossW[b]
			stampAt[b] = 0 // recorded: the loop below skips it
		}
		cg.partners = append(cg.partners, p)
		if b > a && p.offers(cg.W) {
			cg.addInter(a, b, p.d)
		}
	}
	for _, b := range crossing {
		if stampAt[b] == stamp {
			cg.partners = append(cg.partners, partner{b: b, d: math.Inf(1), cross: crossW[b]})
		}
	}
	cg.partnerSpan[a] = [2]int{start, len(cg.partners)}
	cg.crossing = crossing
}

// decide returns the weight H gives the pair {a, p.b}, where p is from a's
// turn, the pair is not in H, and both centers' turns have run: the
// smaller center turned the pair down. What remains is BuildClusterGraph's
// order of appeal: the larger center's offer (the two distances can
// differ in the last bit, as floating-point sums along one path in
// opposite directions do), else, for a crossing pair, a rescue search from
// the smaller center.
func (cg *ClusterGraph) decide(a int, p partner) (float64, bool) {
	b := p.b
	switch {
	case b < a && p.offers(cg.W):
		return p.d, true
	case b > a:
		for _, r := range cg.partners[cg.partnerSpan[b][0]:cg.partnerSpan[b][1]] {
			if r.b == a {
				if r.offers(cg.W) {
					return r.d, true
				}
				break
			}
		}
	}
	if math.IsInf(p.cross, 1) {
		return 0, false
	}
	// Both turns turned the crossing pair down, so its center distance
	// exceeds crossBound (possible only via long phase-0 edges).
	bound := (cg.crossBound - cg.W) + p.cross
	if cg.rescueBound > 0 && bound > cg.rescueBound {
		bound = cg.rescueBound
	}
	return cg.search.DijkstraTarget(cg.gp, min(a, b), max(a, b), bound)
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
