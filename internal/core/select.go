package core

import (
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

// covered implements the Czumaj–Zhao filter (§2.2.2) for edge {u,v} of
// Euclidean length duv: the edge is covered if some spanner neighbor z of u
// satisfies |uz| <= |uv|, |vz| <= α and ∠vuz <= θ, or symmetrically at v.
//
// The |uz| <= |uv| precondition of Lemma 3 is checked explicitly: phase-0
// clique spanners may retain edges of length up to α, which can exceed the
// current bin ceiling, so it does not follow from bin ordering alone.
func covered(points []geom.Point, sp *graph.Graph, u, v int, duv, alpha, theta float64) bool {
	return coveredAt(points, sp, u, v, duv, alpha, theta) ||
		coveredAt(points, sp, v, u, duv, alpha, theta)
}

func coveredAt(points []geom.Point, sp *graph.Graph, u, v int, duv, alpha, theta float64) bool {
	pu, pv := points[u], points[v]
	for _, h := range sp.Neighbors(u) {
		z := h.To
		if z == v {
			continue
		}
		pz := points[z]
		if geom.Dist(pu, pz) > duv {
			continue
		}
		if geom.Dist(pv, pz) > alpha {
			continue
		}
		if geom.Angle(pu, pv, pz) <= theta {
			return true
		}
	}
	return false
}

// selectQueries implements §2.2.2: it drops edges already in the spanner,
// intra-cluster edges (always already t-spanned), and covered edges, then
// keeps exactly one query edge per cluster pair — the minimizer of
// t·w(x,y) − sp(a,x) − sp(b,y) (formula (1)) with deterministic
// lexicographic tie-breaking, so independent executions (e.g. the two
// cluster heads of a pair in the distributed algorithm) select the same
// edge. The result is sorted deterministically.
func selectQueries(points []geom.Point, sp *graph.Graph, cov *cluster.Cover, edges []EdgeInfo, o selectOpts) ([]EdgeInfo, selectStats) {
	type key struct{ a, b int }
	keep := 1 + o.PerPairExtra
	var st selectStats
	perPair := make(map[key][]scoredEdge)
	var all, sameCluster []EdgeInfo
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
				sameCluster = append(sameCluster, e)
			} else {
				st.SameCluster++
			}
			continue
		}
		if !o.DisableCoveredFilter && covered(points, sp, e.U, e.V, e.Dist, o.Alpha, o.Theta) {
			st.Covered++
			continue
		}
		st.Candidates++
		if o.DisableQueryFilter {
			all = append(all, e)
			continue
		}
		score := o.T*e.W - cov.Dist[e.U] - cov.Dist[e.V]
		k := key{a: ca, b: cb}
		if k.a > k.b {
			k.a, k.b = k.b, k.a
		}
		perPair[k] = insertScored(perPair[k], scoredEdge{e: e, score: score}, keep)
	}
	if o.DisableQueryFilter {
		all = append(all, sameCluster...)
		sortEdgeInfos(all)
		return all, st
	}
	perCluster := make(map[int]int)
	out := append([]EdgeInfo(nil), sameCluster...)
	for k, vs := range perPair {
		for _, v := range vs {
			out = append(out, v.e)
		}
		perCluster[k.a] += len(vs)
		perCluster[k.b] += len(vs)
	}
	for _, c := range perCluster {
		if c > st.MaxPerCluster {
			st.MaxPerCluster = c
		}
	}
	sortEdgeInfos(out)
	return out, st
}

// insertScored keeps the `keep` best entries (lowest score, lexicographic
// tie-break) in ascending order.
func insertScored(list []scoredEdge, s scoredEdge, keep int) []scoredEdge {
	pos := len(list)
	for i, cur := range list {
		if s.score < cur.score ||
			(s.score == cur.score && (s.e.U < cur.e.U || (s.e.U == cur.e.U && s.e.V < cur.e.V))) {
			pos = i
			break
		}
	}
	list = append(list, scoredEdge{})
	copy(list[pos+1:], list[pos:])
	list[pos] = s
	if len(list) > keep {
		list = list[:keep]
	}
	return list
}

// scoredEdge pairs a candidate with its formula-(1) score.
type scoredEdge struct {
	e     EdgeInfo
	score float64
}

func sortEdgeInfos(es []EdgeInfo) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
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

// pairs implements the mutual-redundancy test of §2.2.5 over the edges
// added in one phase, measuring distances on the frozen graph H exactly as
// the queries were: ball(v) returns v's ball in H, of a radius that caps
// every distance relevant to the conditions (t1·W_i), on an n-vertex
// graph. Pair (i, j) is reported when, for the better of the two endpoint
// pairings (the d_J minimum of Lemma 20),
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
