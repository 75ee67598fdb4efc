// Package sim implements the paper's communication model (§1.1): a
// synchronous message-passing network in which time is divided into rounds
// and, in each round, every node may send a (different) message to each of
// its neighbors and perform arbitrary local computation. The cost of an
// algorithm is its number of rounds; the simulator additionally counts
// messages and message "words" (one word = one O(log n)-bit record) so the
// bandwidth the algorithms actually consume is visible.
//
// The central primitive is the k-hop gather (Gather): after k rounds of
// flooding every node knows the full weighted topology, and any piggybacked
// per-node state, of its k-hop neighborhood. Synchronous flooding is
// deterministic, so the simulator never runs the protocol: Gather charges
// exactly the rounds/messages/words the flood would use (an exact account,
// not an estimate), and View computes, by BFS and on demand, what one node
// holds afterwards.
package sim

import (
	"fmt"

	"topoctl/internal/graph"
)

// Network wraps a communication graph with cost accounting.
type Network struct {
	g      *graph.Graph
	search *graph.Searcher // scratch for the hop balls every primitive charges over

	rounds   int
	messages int64
	words    int64

	// perStep accumulates costs by named step for reporting.
	perStep map[string]*StepCost
}

// StepCost is the accumulated cost of one named algorithm step.
type StepCost struct {
	Rounds   int
	Messages int64
	Words    int64
}

// NewNetwork returns a network over communication graph g with zeroed
// counters. The graph is not copied; callers must not mutate it while the
// network is in use.
func NewNetwork(g *graph.Graph) *Network {
	return &Network{g: g, search: graph.NewSearcher(g.N()), perStep: make(map[string]*StepCost)}
}

// G returns the underlying communication graph.
func (nw *Network) G() *graph.Graph { return nw.g }

// Rounds returns the total number of communication rounds consumed.
func (nw *Network) Rounds() int { return nw.rounds }

// Messages returns the total number of point-to-point messages sent.
func (nw *Network) Messages() int64 { return nw.messages }

// Words returns the total number of O(log n)-bit words carried by all
// messages.
func (nw *Network) Words() int64 { return nw.words }

// PerStep returns accumulated costs keyed by step name. The returned map is
// live; callers should treat it as read-only.
func (nw *Network) PerStep() map[string]*StepCost { return nw.perStep }

// Charge adds cost to the counters under the given step name. Algorithms
// use Charge for protocol steps whose communication pattern is known exactly
// (e.g. "each node sends one message to each neighbor": rounds=1,
// messages=2M, words=2M).
func (nw *Network) Charge(step string, rounds int, messages, words int64) {
	nw.rounds += rounds
	nw.messages += messages
	nw.words += words
	sc := nw.perStep[step]
	if sc == nil {
		sc = &StepCost{}
		nw.perStep[step] = sc
	}
	sc.Rounds += rounds
	sc.Messages += messages
	sc.Words += words
}

// NeighborExchange charges one round in which every node sends words wordsPer
// to each neighbor (the standard "tell all neighbors" step).
func (nw *Network) NeighborExchange(step string, wordsPer int64) {
	m := int64(2 * nw.g.M()) // one message per directed edge
	nw.Charge(step, 1, m, m*wordsPer)
}

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

// Gather charges a k-hop flooding gather (k < 1 is treated as 1). The
// protocol being accounted: in round 1 every node sends its own record (one
// word per incident edge plus one) to all neighbors; in each later round
// every node forwards the records it learned in the previous round to all
// neighbors. After k rounds node u holds the records of every vertex within
// k hops — View(u, k).
//
// Rounds charged: k. Messages: for every ordered pair (w, x) of neighbors
// and every record origin v, w forwards v's record to x in the round after w
// first learned it, provided that happens within the k-round budget; v's
// record is forwarded by all w with hop(v,w) <= k-1. Words: each record of
// vertex v costs deg(v)+1 words.
func (nw *Network) Gather(step string, k int) {
	if k < 1 {
		k = 1
	}
	var messages, words int64
	for v := 0; v < nw.g.N(); v++ {
		recWords := int64(nw.g.Degree(v) + 1)
		for _, w := range nw.search.HopBall(nw.g, v, k-1) {
			deg := int64(nw.g.Degree(w.V))
			messages += deg
			words += deg * recWords
		}
	}
	nw.Charge(step, k, messages, words)
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
// read past the node's k-hop horizon. Nothing forces computations through
// it yet: dist.Build computes each phase centrally on the whole spanner and
// charges the gather that would have delivered the views (ROADMAP item 8
// owns running the per-node computations on them).
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

// String summarizes the network counters.
func (nw *Network) String() string {
	return fmt.Sprintf("rounds=%d messages=%d words=%d", nw.rounds, nw.messages, nw.words)
}
