// Package graphtest holds the reference oracles that tests across the tree
// compare the production graph kernels against. Each shares nothing with
// graph.Searcher, so a bug in the kernels cannot hide in its reference.
// Only _test.go files import this package.
package graphtest

import (
	"container/heap"
	"math"

	"topoctl/internal/graph"
)

// FloydWarshall computes all-pairs shortest path distances (Inf for
// unreachable pairs) in O(n³); meant for small graphs.
func FloydWarshall(g graph.Topology) [][]float64 {
	n := g.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = graph.Inf
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, h := range g.Neighbors(u) {
			if h.W < d[u][h.To] {
				d[u][h.To] = h.W
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

// Dijkstra returns the shortest-path distance from src to every vertex of
// g (Inf for unreachable ones): textbook lazy-deletion Dijkstra over a
// container/heap queue.
func Dijkstra(g graph.Topology, src int) []float64 {
	dist := make([]float64, g.N())
	for i := range dist {
		dist[i] = graph.Inf
	}
	done := make([]bool, g.N())
	q := queue{{v: src}}
	for len(q) > 0 {
		it := heap.Pop(&q).(item)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		dist[it.v] = it.d
		for _, h := range g.Neighbors(it.v) {
			if !done[h.To] {
				heap.Push(&q, item{v: h.To, d: it.d + h.W})
			}
		}
	}
	return dist
}

type item struct {
	v int
	d float64
}

type queue []item

func (q queue) Len() int            { return len(q) }
func (q queue) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q queue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *queue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// IsSubgraphOf reports whether every edge of g appears in h (with any
// weight). Both graphs must have the same vertex count.
func IsSubgraphOf(g, h graph.Topology) bool {
	if g.N() != h.N() {
		return false
	}
	for _, e := range g.EdgesUnordered() {
		if !h.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}
