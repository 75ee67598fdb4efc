package graph

// Test-only methods: references the production kernels are checked
// against. Declared in a _test.go file of package graph so that both the
// in-package tests and the external graph_test package can call them.

// Count returns the number of disjoint sets, counted as the roots of the
// forest.
func (uf *UnionFind) Count() int {
	n := 0
	for x := range uf.parent {
		if uf.Find(x) == x {
			n++
		}
	}
	return n
}

// DijkstraTargetUni is the unidirectional bounded point-to-point kernel:
// the shortest-path distance from src to dst in g, abandoning the search
// once all frontier labels exceed bound; the boolean reports whether a path
// of length at most bound exists. It settles the full distance ball around
// src up to min(d(src,dst), bound).
//
// The production kernel is the bidirectional DijkstraTarget, which answers
// the same query while settling roughly half the vertices (two half-radius
// balls); this one is the reference the differential tests and the
// settled-work comparison (Stats) pin the bidirectional kernel against.
func (s *Searcher) DijkstraTargetUni(g Topology, src, dst int, bound float64) (float64, bool) {
	if src == dst {
		return 0, true
	}
	rv := viewOf(g)
	s.start(g.N(), src)
	for v, d, ok := s.settle(); ok; v, d, ok = s.settle() {
		if v == dst {
			return d, true
		}
		s.relax(rv.row(v), d, bound)
	}
	return Inf, false
}
