package graph

import "sort"

// UnionFind is a disjoint-set forest with path compression and union by
// rank. It backs Kruskal's MST and connected-component computations.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets containing x and y, reporting whether a merge
// happened (false if they were already in the same set).
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}

// MST returns a minimum spanning forest of g as an edge list (Kruskal).
// For a connected graph this is a minimum spanning tree. Ties are broken
// deterministically by the canonical edge order.
func (g *Graph) MST() []Edge { return MSTOf(g) }

// MSTWeight returns the total weight of a minimum spanning forest of g.
func (g *Graph) MSTWeight() float64 { return MSTWeightOf(g) }

// MSTOf returns a minimum spanning forest of any read-only topology as an
// edge list (Kruskal over the canonical edge order).
func MSTOf(t Topology) []Edge {
	edges := SortedEdges(t)
	n := t.N()
	uf := NewUnionFind(n)
	var mst []Edge
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			mst = append(mst, e)
			if len(mst) == n-1 {
				break
			}
		}
	}
	return mst
}

// MSTWeightOf returns the total weight of a minimum spanning forest of t.
func MSTWeightOf(t Topology) float64 {
	var s float64
	for _, e := range MSTOf(t) {
		s += e.W
	}
	return s
}

// Components returns the connected components of g, each a sorted vertex
// slice; components are ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	uf := NewUnionFind(g.n)
	for u, hs := range g.adj {
		for _, h := range hs {
			uf.Union(u, h.To)
		}
	}
	byRoot := make(map[int][]int)
	for v := 0; v < g.n; v++ {
		r := uf.Find(v)
		byRoot[r] = append(byRoot[r], v)
	}
	comps := make([][]int, 0, len(byRoot))
	for _, c := range byRoot {
		sort.Ints(c)
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Connected reports whether g is connected (vacuously true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	s := AcquireSearcher(g.n)
	reached := len(s.HopBall(g, 0, g.n)) // depth n is unbounded: no hop distance reaches it
	ReleaseSearcher(s)
	return reached == g.n
}
