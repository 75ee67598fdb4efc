// Package graph provides the weighted-graph substrate: the mutable
// adjacency-list Graph that builders work on, the immutable CSR Frozen
// that the serving layer reads from, the narrow Topology interface both
// implement, shortest paths (full, bounded, and target-pruned Dijkstra,
// and goal-directed A* over vertex positions), BFS hop layers, minimum
// spanning trees, union-find, and connected components.
//
// Every algorithm in the repository — the greedy spanners, the cluster
// covers, the cluster graphs, the verification metrics — runs on these
// representations: writers on *Graph, read-only consumers on Topology so
// they accept either. Vertices are dense integer IDs 0..n-1.
package graph

import (
	"fmt"
)

// Halfedge is one direction of an undirected weighted edge.
type Halfedge struct {
	To int
	W  float64
}

// Edge is an undirected weighted edge with U < V canonical orientation
// (enforced by NewEdge; the struct itself does not enforce it so tests can
// construct raw values).
type Edge struct {
	U, V int
	W    float64
}

// NewEdge returns the canonical form of edge {u, v} with weight w.
func NewEdge(u, v int, w float64) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v, W: w}
}

// Graph is an undirected weighted graph over vertices 0..n-1.
// The zero value is not usable; construct with New.
type Graph struct {
	n   int
	adj [][]Halfedge
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]Halfedge, n)}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for u, hs := range g.adj {
		c.adj[u] = append([]Halfedge(nil), hs...)
	}
	return c
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v} with weight w. It panics on a
// self-loop or out-of-range vertex. Duplicate edges are not detected (use
// HasEdge first when the caller needs set semantics).
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.check(u)
	g.check(v)
	g.adj[u] = append(g.adj[u], Halfedge{To: v, W: w})
	g.adj[v] = append(g.adj[v], Halfedge{To: u, W: w})
	g.m++
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether an edge was removed. If parallel edges exist, one is removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.removeHalf(u, v) {
		return false
	}
	g.removeHalf(v, u)
	g.m--
	return true
}

func (g *Graph) removeHalf(u, v int) bool {
	hs := g.adj[u]
	for i, h := range hs {
		if h.To == v {
			hs[i] = hs[len(hs)-1]
			g.adj[u] = hs[:len(hs)-1]
			return true
		}
	}
	return false
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Scan the smaller adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.W, true
		}
	}
	return 0, false
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Halfedge {
	g.check(u)
	return g.adj[u]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, hs := range g.adj {
		if len(hs) > max {
			max = len(hs)
		}
	}
	return max
}

// EdgesUnordered returns all undirected edges in canonical (U < V) form in
// adjacency order, skipping the weight sort of Edges. Use it wherever the
// caller aggregates over edges without depending on their order (metrics,
// binning, fault injection); use Edges where the sorted contract matters
// (greedy processing order, MST, serialization).
func (g *Graph) EdgesUnordered() []Edge {
	es := make([]Edge, 0, g.m)
	for u, hs := range g.adj {
		for _, h := range hs {
			if u < h.To {
				es = append(es, Edge{U: u, V: h.To, W: h.W})
			}
		}
	}
	return es
}

// Edges returns all undirected edges in canonical (U < V) form, sorted by
// weight then lexicographically; the order is deterministic.
func (g *Graph) Edges() []Edge {
	es := g.EdgesUnordered()
	SortEdgesCanonical(es)
	return es
}

// SortedEdges returns t's undirected edges in the canonical sorted order —
// the Topology counterpart of Graph.Edges.
func SortedEdges(t Topology) []Edge {
	es := t.EdgesUnordered()
	SortEdgesCanonical(es)
	return es
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for u, hs := range g.adj {
		for _, h := range hs {
			if u < h.To {
				s += h.W
			}
		}
	}
	return s
}

// Reset removes every edge and keeps the vertex set. Each adjacency row
// keeps its capacity, so a graph rebuilt many times over the same vertices
// (a builder's per-phase cluster graph) stops allocating once its rows
// have grown.
func (g *Graph) Reset() {
	for u := range g.adj {
		g.adj[u] = g.adj[u][:0]
	}
	g.m = 0
}

// Grow extends the vertex set to 0..n-1, keeping all existing edges. It is
// a no-op when the graph already has at least n vertices. Grow is what lets
// long-lived dynamic topologies (internal/dynamic) admit new nodes without
// rebuilding: amortized-doubling callers pay O(1) per join.
func (g *Graph) Grow(n int) {
	if n <= g.n {
		return
	}
	adj := make([][]Halfedge, n)
	copy(adj, g.adj)
	g.adj = adj
	g.n = n
}

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// PathWeight returns the total weight of the vertex sequence path walked
// edge by edge in g, reporting false if any consecutive pair is not an edge
// (or any vertex is out of range). A path of zero or one vertex has weight
// 0 and is always valid. Concurrent serving layers use it to certify that a
// delivered route is consistent with one specific topology snapshot.
func PathWeight(g Topology, path []int) (float64, bool) {
	n := g.N()
	var sum float64
	for i, v := range path {
		if v < 0 || v >= n {
			return 0, false
		}
		if i == 0 {
			continue
		}
		w, ok := g.EdgeWeight(path[i-1], v)
		if !ok {
			return 0, false
		}
		sum += w
	}
	return sum, true
}

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V, e.W)
	}
	return g
}
