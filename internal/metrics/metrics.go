// Package metrics measures the quality of a constructed topology against
// the three guarantees of the paper (stretch, degree, weight) plus the
// power-cost measure of §1.6.3 and the leapfrog property (§2.3) that
// underlies the weight proof. It is the verification backbone of the test
// suite and the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"topoctl/internal/graph"
)

// Stretch computes the exact stretch factor of spanner sp relative to the
// base graph g: max over edges {u,v} of g of sp_sp(u,v) / w_g(u,v).
//
// Checking only the edges of g is sufficient: any shortest path in g
// decomposes into g-edges, so if every g-edge is t-spanned by sp then every
// pair is (the standard spanner argument). Each edge query is a bounded
// bidirectional Dijkstra (two half-radius frontiers instead of one full
// ball), so the cost is proportional to the number of edges times the local ball size rather
// than n², which keeps exact verification feasible throughout the test
// suite. Edge queries are independent, so they are fanned out over a
// worker pool (one Searcher per worker); the result is deterministic
// regardless of worker count because each per-edge value is computed
// identically and max is order-independent.
//
// Both graphs must share a vertex set. If some edge's endpoints are
// disconnected in sp the stretch is +Inf.
func Stretch(g, sp graph.Topology) float64 {
	return StretchParallel(g, sp, runtime.GOMAXPROCS(0))
}

// StretchParallel is Stretch with an explicit worker count (<= 1 runs
// sequentially). All workers only read g and sp.
func StretchParallel(g, sp graph.Topology, workers int) float64 {
	return worstOverEdges(g.EdgesUnordered(), workers, func(s *graph.Searcher, e graph.Edge) float64 {
		if sp.HasEdge(e.U, e.V) {
			return 1
		}
		return edgeStretch(s, sp, e.U, e.V, e.W)
	})
}

// edgeStretch returns sp_sp(u,v)/w, expanding the search budget
// geometrically until the path is found so the common case (small stretch)
// stays cheap; +Inf when no path exists.
func edgeStretch(s *graph.Searcher, sp graph.Topology, u, v int, w float64) float64 {
	bound := 2 * w
	for i := 0; i < 24; i++ {
		if d, ok := s.DijkstraTarget(sp, u, v, bound); ok {
			return d / w
		}
		bound *= 2
	}
	return math.Inf(1)
}

// StretchVsWeights is Stretch with an explicit base weight per edge of g:
// weight(u, v, euclid) maps an edge to its metric weight, letting callers
// verify energy-metric spanners whose base graph carries Euclidean weights.
// weight must be safe for concurrent calls.
func StretchVsWeights(g, sp graph.Topology, weight func(u, v int, euclid float64) float64) float64 {
	workers := runtime.GOMAXPROCS(0)
	return worstOverEdges(g.EdgesUnordered(), workers, func(s *graph.Searcher, e graph.Edge) float64 {
		w := weight(e.U, e.V, e.W)
		return edgeStretch(s, sp, e.U, e.V, w)
	})
}

// worstOverEdges evaluates eval on every edge and returns the maximum (at
// least 1), fanning the edges out over min(workers, len(edges)) goroutines
// with one Searcher each. A worker stops early once it observes +Inf —
// nothing can exceed it. eval must not mutate shared state.
func worstOverEdges(edges []graph.Edge, workers int, eval func(*graph.Searcher, graph.Edge) float64) float64 {
	if len(edges) == 0 {
		return 1
	}
	if workers > len(edges) {
		workers = len(edges)
	}
	if workers <= 1 {
		s := graph.AcquireSearcher(0)
		defer graph.ReleaseSearcher(s)
		return worstOfRange(edges, s, eval)
	}
	worsts := make([]float64, workers)
	chunk := (len(edges) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		if lo >= hi {
			worsts[w] = 1
			continue
		}
		wg.Add(1)
		go func(w int, part []graph.Edge) {
			defer wg.Done()
			s := graph.AcquireSearcher(0)
			defer graph.ReleaseSearcher(s)
			worsts[w] = worstOfRange(part, s, eval)
		}(w, edges[lo:hi])
	}
	wg.Wait()
	worst := 1.0
	for _, v := range worsts {
		if v > worst {
			worst = v
		}
	}
	return worst
}

func worstOfRange(edges []graph.Edge, s *graph.Searcher, eval func(*graph.Searcher, graph.Edge) float64) float64 {
	worst := 1.0
	for _, e := range edges {
		if v := eval(s, e); v > worst {
			worst = v
			if math.IsInf(v, 1) {
				break
			}
		}
	}
	return worst
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Max int
	Avg float64
}

// Degrees returns max and average degree of g.
func Degrees(g graph.Topology) DegreeStats {
	ds := DegreeStats{Max: g.MaxDegree()}
	if g.N() > 0 {
		ds.Avg = 2 * float64(g.M()) / float64(g.N())
	}
	return ds
}

// WeightRatio returns w(sp) / w(MST(g)) — the Theorem 13 quantity. The MST
// is computed on g with g's weights; sp's total weight uses sp's weights, so
// callers must keep both graphs in the same metric.
func WeightRatio(g, sp graph.Topology) float64 {
	mst := graph.MSTWeightOf(g)
	if mst == 0 {
		return 1
	}
	return sp.TotalWeight() / mst
}

// PowerCost returns Σ_u max_{v∈N(u)} w(u,v), the power-cost measure of
// §1.6.3 (each radio transmits at the power needed to reach its farthest
// chosen neighbor). Isolated vertices contribute zero.
func PowerCost(g graph.Topology) float64 {
	var total float64
	for u := 0; u < g.N(); u++ {
		var max float64
		for _, h := range g.Neighbors(u) {
			if h.W > max {
				max = h.W
			}
		}
		total += max
	}
	return total
}

// Report is a one-line quality summary of a topology against its base graph.
type Report struct {
	Name        string
	Edges       int
	MaxDegree   int
	AvgDegree   float64
	Stretch     float64
	WeightRatio float64
	PowerRatio  float64
}

// Evaluate builds a Report for spanner sp over base g. PowerRatio compares
// sp's power cost to that of the MST of g (the sparsest connected
// benchmark).
func Evaluate(name string, g, sp graph.Topology) Report {
	deg := Degrees(sp)
	mstG := graph.FromEdges(g.N(), graph.MSTOf(g))
	pcMST := PowerCost(mstG)
	pr := math.Inf(1)
	if pcMST > 0 {
		pr = PowerCost(sp) / pcMST
	} else if PowerCost(sp) == 0 {
		pr = 1
	}
	return Report{
		Name:        name,
		Edges:       sp.M(),
		MaxDegree:   deg.Max,
		AvgDegree:   deg.Avg,
		Stretch:     Stretch(g, sp),
		WeightRatio: WeightRatio(g, sp),
		PowerRatio:  pr,
	}
}

// String renders the report as a fixed-width row.
func (r Report) String() string {
	return fmt.Sprintf("%-16s edges=%-5d maxdeg=%-3d avgdeg=%-6.2f stretch=%-7.4f weight/mst=%-7.3f power/mst=%-7.3f",
		r.Name, r.Edges, r.MaxDegree, r.AvgDegree, r.Stretch, r.WeightRatio, r.PowerRatio)
}

// LeapfrogViolations samples subsets S of the spanner's edge set and checks
// the (t2, t)-leapfrog inequality (paper definition (6)):
//
//	t2·|u1v1| < Σ_{i>=2} |uivi| + t·(Σ |vi u_{i+1}| + |vs u1|)
//
// for every sampled ordered subset with {u1,v1} a longest edge. It returns
// the number of violated samples out of the given trials. The sampler draws
// geometrically close edge groups (violations, if any, are local), orders
// the longest edge first, and tries both orientations of every other edge,
// taking the adversarial (minimizing) right-hand side.
func LeapfrogViolations(edges []graph.Edge, pos func(v int) []float64, t2, t float64, trials, subsetSize int, seed int64) int {
	if len(edges) < 2 {
		return 0
	}
	rng := newSplitMix(uint64(seed))
	dist := func(a, b int) float64 {
		pa, pb := pos(a), pos(b)
		var s float64
		for i := range pa {
			d := pa[i] - pb[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	violations := 0
	for trial := 0; trial < trials; trial++ {
		// Pick a focus edge, then its geometrically nearest edges.
		f := edges[int(rng.next()%uint64(len(edges)))]
		type cand struct {
			e graph.Edge
			d float64
		}
		var cands []cand
		for _, e := range edges {
			if e == f {
				continue
			}
			d := math.Min(math.Min(dist(f.U, e.U), dist(f.U, e.V)), math.Min(dist(f.V, e.U), dist(f.V, e.V)))
			cands = append(cands, cand{e: e, d: d})
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
		k := subsetSize - 1
		if k > len(cands) {
			k = len(cands)
		}
		group := []graph.Edge{f}
		for i := 0; i < k; i++ {
			group = append(group, cands[i].e)
		}
		// Longest edge first.
		sort.Slice(group, func(i, j int) bool {
			return dist(group[i].U, group[i].V) > dist(group[j].U, group[j].V)
		})
		if leapfrogViolated(group, dist, t2, t) {
			violations++
		}
	}
	return violations
}

// leapfrogViolated checks whether some orientation of the given edge cycle
// violates the leapfrog inequality for the first (longest) edge. It
// enumerates orientations of each subsequent edge greedily to minimize the
// connector terms — a heuristic adversary; exact minimization over
// orderings is exponential and unnecessary for a validation metric.
func leapfrogViolated(group []graph.Edge, dist func(a, b int) float64, t2, t float64) bool {
	u1, v1 := group[0].U, group[0].V
	lhs := t2 * dist(u1, v1)
	var sumEdges, sumConn float64
	prevV := v1
	for _, e := range group[1:] {
		// Orient e to minimize the connector from prevV.
		dU, dV := dist(prevV, e.U), dist(prevV, e.V)
		if dU <= dV {
			sumConn += dU
			prevV = e.V
		} else {
			sumConn += dV
			prevV = e.U
		}
		sumEdges += dist(e.U, e.V)
	}
	sumConn += dist(prevV, u1)
	rhs := sumEdges + t*sumConn
	return lhs >= rhs
}

// splitMix is a tiny deterministic PRNG so metrics stays independent of
// math/rand ordering guarantees.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
