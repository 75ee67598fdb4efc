package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"topoctl/internal/cluster"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// EdgeInfo is an input edge annotated with its Euclidean length and its
// metric weight. It is the unit of work shared by the sequential (§2) and
// distributed (§3) implementations.
type EdgeInfo struct {
	U, V int
	// Dist is the Euclidean length |uv|.
	Dist float64
	// W is the metric weight w(u,v).
	W float64
}

// selectOpts parameterizes query-edge selection.
type selectOpts struct {
	// T, Theta, Alpha are the stretch, covered-edge angle and UBG radius.
	T, Theta, Alpha float64
	// DisableCoveredFilter and DisableQueryFilter are ablation switches
	// (see Options).
	DisableCoveredFilter bool
	DisableQueryFilter   bool
	// PerPairExtra keeps this many query edges per cluster pair beyond the
	// usual single minimizer of formula (1). The k-fault-tolerant variant
	// (§1.6.1, after Czumaj–Zhao) keeps k+1 query edges per pair so that k
	// failures leave a usable one.
	PerPairExtra int
	// Scratch is the build's selection scratch; nil allocates one for the
	// call.
	Scratch *selectScratch
}

// selectScratch is a selection's storage, kept per build so a phase
// allocates nothing once it has grown to the largest bin: the candidate
// list, the selected edges (valid until the next selection), and a count,
// per cluster center, of the query edges kept at it, of which a selection
// clears only the centers it counted.
type selectScratch struct {
	cands   []candidate
	out     []EdgeInfo
	count   []int
	touched []int
}

// add counts one kept edge at center c and returns c's count.
func (s *selectScratch) add(c int) int {
	if s.count[c] == 0 {
		s.touched = append(s.touched, c)
	}
	s.count[c]++
	return s.count[c]
}

// clear zeroes the counts add set.
func (s *selectScratch) clear() {
	for _, c := range s.touched {
		s.count[c] = 0
	}
	s.touched = s.touched[:0]
}

// selectStats reports what the selection filtered.
type selectStats struct {
	AlreadyInSpanner int
	SameCluster      int
	Covered          int
	Candidates       int
	// MaxPerCluster is the largest number of selected query edges incident
	// to one cluster (the Lemma 4 quantity).
	MaxPerCluster int
}

// Witness is the triple test of the Czumaj–Zhao covered-edge filter
// (§2.2.2, Lemma 3) at half-angle θ: z witnesses the edge uv when
// 0 < |uz| <= |uv| and ∠vuz <= θ. Then, with t >= 1/(cos θ − sin θ), the
// path u→z followed by a t-path z→v is a t-path u→v.
//
// The lemma's induction needs |zv| < |uv|, so that z→v is an edge the
// spanner handles earlier. With 0 < |uz| <= |uv| and ∠vuz <= θ < π/4 that
// holds; at |uz| = 0 it does not, because a twin z of u has |zv| = |uv|.
// Two coincident points would otherwise witness each other's edges, and
// neither edge would ever be queried.
type Witness struct {
	theta, cos float64
}

// NewWitness returns the witness test at half-angle theta.
func NewWitness(theta float64) Witness {
	return Witness{theta: theta, cos: math.Cos(theta)}
}

// cosBand is the width of the band around cos θ inside which Holds
// decides by the angle itself. Outside it, cos∠ and cos θ differ by far
// more than math.Acos's and math.Cos's few-ulp errors, so comparing them
// decides as comparing the angles does.
const cosBand = 1e-9

// Holds reports whether z witnesses the edge uv of Euclidean length duv.
// It decides as 0 < |uz| <= duv && geom.Angle(u, v, z) <= θ does, bit for
// bit, without allocating and, outside a band of width cosBand around
// cos θ, without an acos: the dot product and norms are Angle's, summed in
// Angle's order, so cos∠vuz is Angle's cosine to the bit.
func (w Witness) Holds(u, v, z geom.Point, duv float64) bool {
	var uu, zz, uz float64
	for i := range u {
		a, b := v[i]-u[i], z[i]-u[i]
		uu += a * a
		zz += b * b
		uz += a * b
	}
	nz := math.Sqrt(zz)
	if nz > duv {
		return false
	}
	nu := math.Sqrt(uu)
	if nu == 0 || nz == 0 {
		return false // a coincident z, or a degenerate uv
	}
	c := uz / (nu * nz)
	switch {
	case c >= w.cos+cosBand:
		return true
	case c <= w.cos-cosBand:
		return false
	}
	return math.Acos(min(max(c, -1), 1)) <= w.theta
}

// covered implements the Czumaj–Zhao filter (§2.2.2) for edge {u,v} of
// Euclidean length duv: the edge is covered if some spanner neighbor z of u
// witnesses it and has |vz| <= α, or symmetrically at v.
//
// The |uz| <= |uv| precondition of Lemma 3 is checked explicitly: phase-0
// clique spanners may retain edges of length up to α, which can exceed the
// current bin ceiling, so it does not follow from bin ordering alone.
func covered(points []geom.Point, sp *graph.Graph, u, v int, duv, alpha float64, w Witness) bool {
	return coveredAt(points, sp, u, v, duv, alpha, w) ||
		coveredAt(points, sp, v, u, duv, alpha, w)
}

func coveredAt(points []geom.Point, sp *graph.Graph, u, v int, duv, alpha float64, w Witness) bool {
	pu, pv := points[u], points[v]
	for _, h := range sp.Neighbors(u) {
		if z := h.To; z != v && w.Holds(pu, pv, points[z], duv) && geom.Dist(pv, points[z]) <= alpha {
			return true
		}
	}
	return false
}

// candidate is a query-edge candidate with its ordered cluster pair
// (a < b) and its formula-(1) score.
type candidate struct {
	e     EdgeInfo
	a, b  int
	score float64
}

// selectQueries implements §2.2.2: it drops edges already in the spanner,
// intra-cluster edges (always already t-spanned), and covered edges, then
// keeps exactly one query edge per cluster pair — the minimizer of
// t·w(x,y) − sp(a,x) − sp(b,y) (formula (1)) with deterministic
// lexicographic tie-breaking, so independent executions (e.g. the two
// cluster heads of a pair in the distributed algorithm) select the same
// edge. The result is sorted deterministically.
//
// The grouping is one sort of the candidates by (pair, score, U, V): each
// pair's run then starts with its best, and one pass keeps the first of
// every run (the first 1 + PerPairExtra) and counts the kept edges at
// their clusters. The result is o.Scratch's: valid until its next
// selection.
func selectQueries(points []geom.Point, sp *graph.Graph, cov *cluster.Cover, edges []EdgeInfo, o selectOpts) ([]EdgeInfo, selectStats) {
	keep := 1 + o.PerPairExtra
	sc := o.Scratch
	if sc == nil {
		sc = new(selectScratch)
	}
	if len(sc.count) < len(cov.Center) {
		sc.count = make([]int, len(cov.Center))
	}
	w := NewWitness(o.Theta)
	var st selectStats
	cands, out := sc.cands[:0], sc.out[:0]
	for _, e := range edges {
		if sp.HasEdge(e.U, e.V) {
			st.AlreadyInSpanner++
			continue
		}
		ca, cb := cov.Center[e.U], cov.Center[e.V]
		if ca == cb {
			// Plain builds skip intra-cluster edges: sp(u,v) <= 2δW_{i-1}
			// already t-spans them. That certificate is a single path, so
			// fault-tolerant builds must query these edges too.
			if o.PerPairExtra > 0 {
				out = append(out, e)
			} else {
				st.SameCluster++
			}
			continue
		}
		if !o.DisableCoveredFilter && covered(points, sp, e.U, e.V, e.Dist, o.Alpha, w) {
			st.Covered++
			continue
		}
		st.Candidates++
		if o.DisableQueryFilter {
			out = append(out, e)
			continue
		}
		cands = append(cands, candidate{
			e: e, a: min(ca, cb), b: max(ca, cb),
			score: o.T*e.W - cov.Dist[e.U] - cov.Dist[e.V],
		})
	}
	slices.SortFunc(cands, func(x, y candidate) int {
		switch {
		case x.a != y.a:
			return cmp.Compare(x.a, y.a)
		case x.b != y.b:
			return cmp.Compare(x.b, y.b)
		case x.score != y.score:
			return cmp.Compare(x.score, y.score)
		case x.e.U != y.e.U:
			return cmp.Compare(x.e.U, y.e.U)
		}
		return cmp.Compare(x.e.V, y.e.V)
	})
	run := 0
	for i, c := range cands {
		if i > 0 && c.a == cands[i-1].a && c.b == cands[i-1].b {
			run++
		} else {
			run = 0
		}
		if run < keep {
			out = append(out, c.e)
			st.MaxPerCluster = max(st.MaxPerCluster, sc.add(c.a), sc.add(c.b))
		}
	}
	sc.clear()
	sc.cands, sc.out = cands, out
	sortEdgeInfos(out)
	return out, st
}

func sortEdgeInfos(es []EdgeInfo) {
	slices.SortFunc(es, func(x, y EdgeInfo) int {
		if x.U != y.U {
			return cmp.Compare(x.U, y.U)
		}
		return cmp.Compare(x.V, y.V)
	})
}

// redundancyScan is the scratch of step (v)'s mutual-redundancy test,
// kept across a build's phases. Every phase resets only the entries of its
// added edges' endpoints, so a phase costs its bin, not n.
type redundancyScan struct {
	// incident[v] lists, in increasing order, the added edges with an
	// endpoint at v. Endpoint v's ball within the bound is
	// slab[ballLo[v]:ballHi[v]]; ballHi[v] == 0 means not yet searched
	// (a ball holds at least v itself).
	incident       [][]int
	ballLo, ballHi []int
	slab           []graph.VertexDist
	// distU and distV hold an edge's distances from its endpoints, Inf
	// outside their balls; each turn resets what it set.
	distU, distV []float64
}

// grow sizes the scan for n-vertex graphs.
func (r *redundancyScan) grow(n int) {
	r.incident = make([][]int, n)
	r.ballLo, r.ballHi = make([]int, n), make([]int, n)
	r.distU, r.distV = make([]float64, n), make([]float64, n)
	for v := range r.distU {
		r.distU[v], r.distV[v] = math.Inf(1), math.Inf(1)
	}
}

// pairRadius is the widest ball the mutual-redundancy test over added can
// use. A pair passes only when s + w' <= t1·w and s + w <= t1·w'; their
// sum gives s <= (t1−1)·(w+w')/2 <= (t1−1)·max(w) over added, and a
// distance past that radius only makes s larger. The maximum comes from
// added itself, not from the bin's ceiling, so the radius holds for any
// metric. It is widened by 1e-12·t1·max(w), far above the rounding in the
// test's sums, so that no s the test passes lies past it.
func pairRadius(added []EdgeInfo, t1 float64) float64 {
	hi := 0.0
	for _, e := range added {
		hi = max(hi, e.W)
	}
	return (t1 - 1 + 1e-12*t1) * hi
}

// pairs implements the mutual-redundancy test of §2.2.5 over the edges
// added in one phase, measuring distances on the frozen graph H exactly as
// the queries were: ball(v) returns v's ball in H, of a radius that caps
// every distance relevant to the conditions (pairRadius, or anything
// wider), on an n-vertex graph. Pair (i, j) is reported when, for the
// better of the two endpoint pairings (the d_J minimum of Lemma 20),
//
//	sp_H(u,u') + sp_H(v,v') + w' <= t1·w  and
//	sp_H(u,u') + sp_H(v,v') + w  <= t1·w'.
//
// Both pairings use a distance from u, so the sum is finite only if u' or
// v' lies within the radius of u: edge i is tested only against the later
// edges with an endpoint in u's ball, which is exact. Pairs come out in
// (i, j) order.
func (r *redundancyScan) pairs(n int, added []EdgeInfo, t1 float64, ball func(v int) []graph.VertexDist) [][2]int {
	if len(r.distU) < n {
		r.grow(n)
	}
	r.slab = r.slab[:0]
	for i, e := range added {
		for _, v := range [2]int{e.U, e.V} {
			r.incident[v] = append(r.incident[v], i)
			if r.ballHi[v] == 0 {
				r.ballLo[v] = len(r.slab)
				r.slab = append(r.slab, ball(v)...)
				r.ballHi[v] = len(r.slab)
			}
		}
	}
	distU, distV := r.distU, r.distV
	var pairs [][2]int
	var cands []int
	for i, a := range added {
		ballU := r.slab[r.ballLo[a.U]:r.ballHi[a.U]]
		ballV := r.slab[r.ballLo[a.V]:r.ballHi[a.V]]
		cands = cands[:0]
		for _, vd := range ballU {
			distU[vd.V] = vd.D
			for _, j := range r.incident[vd.V] {
				if j > i {
					cands = append(cands, j)
				}
			}
		}
		for _, vd := range ballV {
			distV[vd.V] = vd.D
		}
		sort.Ints(cands)
		for _, j := range slices.Compact(cands) {
			c := added[j]
			s1 := distU[c.U] + distV[c.V]
			s2 := distU[c.V] + distV[c.U]
			s := math.Min(s1, s2)
			if s+c.W <= t1*a.W && s+a.W <= t1*c.W {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		for _, vd := range ballU {
			distU[vd.V] = math.Inf(1)
		}
		for _, vd := range ballV {
			distV[vd.V] = math.Inf(1)
		}
	}
	for _, e := range added {
		r.incident[e.U], r.incident[e.V] = r.incident[e.U][:0], r.incident[e.V][:0]
		r.ballHi[e.U], r.ballHi[e.V] = 0, 0
	}
	return pairs
}
