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
// not an estimate). That account depends only on the graph and k, so a
// network works it out once per depth and charges the same figures every
// later gather of that depth. The algorithms compute each phase centrally;
// only the tests materialize what one node holds after a gather.
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
	// gathers holds Gather's messages and words by depth.
	gathers map[int][2]int64
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
	return &Network{
		g:       g,
		search:  graph.NewSearcher(g.N()),
		perStep: make(map[string]*StepCost),
		gathers: make(map[int][2]int64),
	}
}

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

// Gather charges a k-hop flooding gather (k < 1 is treated as 1). The
// protocol being accounted: in round 1 every node sends its own record (one
// word per incident edge plus one) to all neighbors; in each later round
// every node forwards the records it learned in the previous round to all
// neighbors. After k rounds node u holds the records of every vertex within
// k hops.
//
// Rounds charged: k. Messages: for every ordered pair (w, x) of neighbors
// and every record origin v, w forwards v's record to x in the round after w
// first learned it, provided that happens within the k-round budget; v's
// record is forwarded by all w with hop(v,w) <= k-1. Words: each record of
// vertex v costs deg(v)+1 words. The first gather of a depth walks every
// vertex's hop ball; later ones charge what it found.
func (nw *Network) Gather(step string, k int) {
	if k < 1 {
		k = 1
	}
	cost, ok := nw.gathers[k]
	if !ok {
		for v := 0; v < nw.g.N(); v++ {
			recWords := int64(nw.g.Degree(v) + 1)
			for _, w := range nw.search.HopBall(nw.g, v, k-1) {
				deg := int64(nw.g.Degree(w.V))
				cost[0] += deg
				cost[1] += deg * recWords
			}
		}
		nw.gathers[k] = cost
	}
	nw.Charge(step, k, cost[0], cost[1])
}

// String summarizes the network counters.
func (nw *Network) String() string {
	return fmt.Sprintf("rounds=%d messages=%d words=%d", nw.rounds, nw.messages, nw.words)
}
