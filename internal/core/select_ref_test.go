package core

import (
	"math"

	"topoctl/internal/cluster"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// This file keeps the forms the phase's bookkeeping replaced, as the
// references its exactness tests compare against: the covered test on
// geom.Angle, the map-grouped query selection, and bins by log and pow.

// refCovered is covered with the witness test in geom.Angle's form,
// coincident witnesses skipped.
func refCovered(points []geom.Point, sp *graph.Graph, u, v int, duv, alpha, theta float64) bool {
	return refCoveredAt(points, sp, u, v, duv, alpha, theta) ||
		refCoveredAt(points, sp, v, u, duv, alpha, theta)
}

func refCoveredAt(points []geom.Point, sp *graph.Graph, u, v int, duv, alpha, theta float64) bool {
	pu, pv := points[u], points[v]
	for _, h := range sp.Neighbors(u) {
		z := h.To
		if z == v {
			continue
		}
		pz := points[z]
		if d := geom.Dist(pu, pz); d == 0 || d > duv {
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

// refSelectQueries is selectQueries grouping the candidates in a map by
// cluster pair, each pair's best kept by insertion.
func refSelectQueries(points []geom.Point, sp *graph.Graph, cov *cluster.Cover, edges []EdgeInfo, o selectOpts) ([]EdgeInfo, selectStats) {
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
			if o.PerPairExtra > 0 {
				sameCluster = append(sameCluster, e)
			} else {
				st.SameCluster++
			}
			continue
		}
		if !o.DisableCoveredFilter && refCovered(points, sp, e.U, e.V, e.Dist, o.Alpha, o.Theta) {
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

// refCeiling is W_i by its formula.
func refCeiling(b Bins, i int) float64 {
	return b.W0 * math.Pow(b.R, float64(i))
}

// refIndex is Bins.index by a log, corrected at bin boundaries against
// the formula's ceilings.
func refIndex(b Bins, d float64) int {
	if d <= b.W0 {
		return 0
	}
	i := int(math.Ceil(math.Log(d/b.W0) / math.Log(b.R)))
	// Guard against floating-point edge effects at bin boundaries.
	for i > 0 && d <= refCeiling(b, i-1) {
		i--
	}
	for d > refCeiling(b, i) {
		i++
	}
	if i > b.M {
		i = b.M
	}
	return i
}
