package sim

// What one node holds after a k-hop gather, materialized for the tests:
// Gather charges the flood for every node at once, and these check that
// account against the views it would have delivered.

import "topoctl/internal/graph"

// LocalView is the knowledge a node has after a k-hop gather: the hop
// distance of every known vertex and the full adjacency (with weights) of
// every known vertex. Known vertices are exactly those within k hops of the
// root; since adjacency of a vertex at hop k is known, edges to hop-(k+1)
// vertices are visible as "dangling" endpoints, matching what flooding
// delivers.
type LocalView struct {
	Root  int
	Depth int
	// Hops maps known vertex -> hop distance from Root (<= Depth).
	Hops map[int]int
}

// Knows reports whether vertex v is inside the view.
func (lv *LocalView) Knows(v int) bool {
	_, ok := lv.Hops[v]
	return ok
}

// View returns what node root holds after a depth-k Gather. It charges
// nothing: Gather accounts the flood for every node at once, and a view is
// only materialized for a node whose local computation is actually run
// against it.
func (nw *Network) View(root, k int) *LocalView {
	ball := nw.search.HopBall(nw.g, root, k)
	lv := &LocalView{Root: root, Depth: k, Hops: make(map[int]int, len(ball))}
	for _, vh := range ball {
		lv.Hops[vh.V] = vh.Hops
	}
	return lv
}

// Subgraph materializes the view as a standalone graph over the original
// vertex IDs: it contains every edge of the communication graph whose both
// endpoints are known to the view, so a computation run against it cannot
// read past the node's k-hop horizon.
func (lv *LocalView) Subgraph(g *graph.Graph) *graph.Graph {
	sub := graph.New(g.N())
	for v := 0; v < g.N(); v++ { // id order, not map order: the result is deterministic
		if !lv.Knows(v) {
			continue
		}
		for _, h := range g.Neighbors(v) {
			if v < h.To && lv.Knows(h.To) {
				sub.AddEdge(v, h.To, h.W)
			}
		}
	}
	return sub
}
