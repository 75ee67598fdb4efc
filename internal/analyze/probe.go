package analyze

import (
	"math"
	"math/rand/v2"
	"slices"

	"topoctl/internal/graph"
)

// DefaultSample is the stretch-probe size /analyze/divergence uses when the
// request names none, and the size of the probe behind topoctld's /stats
// estimate.
const DefaultSample = 256

// ProbeConfidence is the confidence level of StretchProbe.ViolationBound.
const ProbeConfidence = 0.99

// StretchProbe is one run of the stretch probe: the paper's contract,
// stretch ≤ t, checked edge by edge over a deterministic sample of base
// edges, each with the A* kernel /route runs.
type StretchProbe struct {
	// Checked holds one witness per base edge the probe checked, in the
	// canonical row order (u < v) of the base graph.
	Checked []StretchWitness
	// Exact is set when every base edge was checked.
	Exact bool
	// Truncated is set when the time cap cut the probe short.
	Truncated bool
}

// ProbeStretch checks up to sample (≥ 0) base edges of v for their realized
// spanner stretch under opts' time cap. A sample at least the base edge
// count checks every edge; a smaller one draws that many distinct edges
// uniformly at random, determined entirely by (v.Base, sample, seed), so a
// Graph and its Freeze probe the same pairs.
func ProbeStretch(v View, sample int, seed int64, opts Options) StretchProbe {
	edges, exact := sampleEdges(v.Base, sample, seed)
	results := make([]StretchWitness, len(edges))
	filled := make([]bool, len(edges))
	_, truncated := scanParallel(v.n(), len(edges), opts.MaxDuration, func(srch *graph.Searcher, i int) {
		e := edges[i]
		w := StretchWitness{U: e.U, V: e.V, BaseWeight: e.W}
		if d, ok := srch.AStarTarget(v.Spanner, v.Points, e.U, e.V, graph.Inf); ok {
			w.Reachable, w.Distance = true, d
			if e.W > 0 {
				w.Stretch = d / e.W
			} else {
				w.Stretch = 1
			}
		}
		results[i] = w
		filled[i] = true
	})
	p := StretchProbe{Exact: exact && !truncated, Truncated: truncated, Checked: results[:0]}
	for i, w := range results {
		if filled[i] {
			p.Checked = append(p.Checked, w)
		}
	}
	return p
}

// Worst returns the largest stretch over the checked edges the spanner
// connects (at least 1) and how many checked edges it cannot connect at
// all.
func (p StretchProbe) Worst() (worst float64, disconnected int) {
	worst = 1
	for _, w := range p.Checked {
		switch {
		case !w.Reachable:
			disconnected++
		case w.Stretch > worst:
			worst = w.Stretch
		}
	}
	return worst, disconnected
}

// ViolationBound bounds, with confidence ProbeConfidence, the fraction of
// base edges whose stretch may exceed Worst; zero when Exact. It is the
// coupon argument: if a fraction F of the edges exceeds the sampled
// maximum, k uniform draws all miss them with probability (1−F)^k ≤ e^{−Fk}
// (drawing without replacement only lowers it), so with confidence 1−δ at
// most F = ln(1/δ)/k of the edges exceed it. A truncated probe bounds
// nothing: the edges it checked are each worker's low-rank prefix, not a
// uniform draw.
func (p StretchProbe) ViolationBound() float64 {
	switch {
	case p.Exact:
		return 0
	case p.Truncated, len(p.Checked) == 0:
		return 1
	}
	return math.Log(1/(1-ProbeConfidence)) / float64(len(p.Checked))
}

// sampleEdges returns every edge of g when k covers its edge set (exact
// true), and otherwise k distinct edges drawn uniformly at random,
// determined entirely by (g, k, seed). Edge ranks are the canonical row
// order a Frozen or Graph enumerates (u < h.To), so the draw needs no
// materialized edge list: a partial Fisher–Yates over [0, m) with a sparse
// overlay map picks k ranks in O(k) space, and one adjacency walk collects
// exactly the selected edges.
func sampleEdges(g graph.Topology, k int, seed int64) (edges []graph.Edge, exact bool) {
	m := g.M()
	if k >= m {
		return g.EdgesUnordered(), true
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	// Partial Fisher–Yates: swap a random survivor into position i; the
	// overlay records displaced values only for the O(k) touched slots.
	overlay := make(map[int]int, 2*k)
	at := func(i int) int {
		if v, ok := overlay[i]; ok {
			return v
		}
		return i
	}
	ranks := make([]int, k)
	for i := range ranks {
		j := i + rng.IntN(m-i)
		ranks[i] = at(j)
		overlay[j] = at(i)
	}
	slices.Sort(ranks)

	edges = make([]graph.Edge, 0, k)
	rank := 0
	for u := 0; u < g.N() && len(edges) < k; u++ {
		for _, h := range g.Neighbors(u) {
			if u >= h.To {
				continue
			}
			if rank == ranks[len(edges)] {
				edges = append(edges, graph.Edge{U: u, V: h.To, W: h.W})
				if len(edges) == k {
					break
				}
			}
			rank++
		}
	}
	return edges, false
}
