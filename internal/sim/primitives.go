package sim

// Trees is the shape of a phase's cluster trees: measured once by
// Network.Trees and charged by every convergecast and broadcast that runs
// over them.
type Trees struct {
	// depth is the hop bound, the rounds each flow takes.
	depth int
	// hops sums the members' hop distances to their heads.
	hops int64
}

// Trees measures the cluster trees rooted at heads, the centers whose
// cluster has a second member: center[v] gives each vertex's center
// (center[h] == h) and size(h) counts the vertices of h's cluster, h
// included. A member reports along a shortest hop path of the
// communication graph, so each head walks its hop ball only until it has
// seen its members, and the trees' depth is the largest member hop
// distance (at least 1). A vertex outside those clusters is a tree of its
// own, which no flow charges, so the cost is the heads' hop balls, not n.
// Every member must be reachable from its head.
func (nw *Network) Trees(heads, center []int, size func(head int) int) Trees {
	t := Trees{depth: 1}
	for _, h := range heads {
		left := size(h) - 1
		nw.search.HopWalk(nw.g, h, nw.g.N(), func(v, hops int) bool {
			if v != h && center[v] == h {
				t.hops += int64(hops)
				t.depth = max(t.depth, hops)
				left--
			}
			return left > 0
		})
		if left > 0 {
			panic("sim: cluster member unreachable from its head")
		}
	}
	return t
}

// Depth returns the trees' depth: the hop radius a phase's gathers and
// derived rounds flood to.
func (t Trees) Depth() int { return t.depth }

// Convergecast charges the cost of every member reporting wordsPer words to
// its cluster's head along the trees t: the depth in rounds, and one
// message per hop of each member's path. Message count is exact for
// per-hop relaying without aggregation.
//
// This is the "members report to their cluster head" step of §3.2.2/§3.2.3;
// the paper's heads gather information from a constant hop radius, which is
// exactly the trees' depth here.
func (nw *Network) Convergecast(step string, t Trees, wordsPer int64) {
	nw.Charge(step, t.depth, t.hops, t.hops*wordsPer)
}

// Broadcast charges the reverse flow: each head sends wordsPer words to
// every member, relayed hop by hop. Cost structure is identical to
// Convergecast (same trees, opposite direction).
func (nw *Network) Broadcast(step string, t Trees, wordsPer int64) {
	nw.Charge(step, t.depth, t.hops, t.hops*wordsPer)
}

// DerivedMISRound charges one communication round of a distributed MIS
// running on a derived graph: derived-graph neighbors are at most hop hops
// apart in the communication graph, so one derived round costs hop real
// rounds and one relayed message per derived edge direction per hop.
// degSum is the sum of derived-graph degrees (2× derived edges).
func (nw *Network) DerivedMISRound(step string, degSum int64, hop int) {
	if hop < 1 {
		hop = 1
	}
	nw.Charge(step, hop, degSum*int64(hop), degSum*int64(hop))
}
