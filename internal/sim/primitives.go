package sim

// Convergecast charges the cost of every member reporting wordsPer words to
// its assigned center along a shortest hop path: center[v] gives each
// vertex's destination (centers have center[c] == c), and maxHops bounds
// the tree depth (rounds charged). Message count is exact for per-hop
// relaying without aggregation: one message per hop of each member's path.
//
// This is the "members report to their cluster head" step of §3.2.2/§3.2.3;
// the paper's heads gather information from a constant hop radius, which is
// exactly maxHops here.
func (nw *Network) Convergecast(step string, center []int, maxHops int, wordsPer int64) {
	nw.chargeTreeTraffic(step, center, maxHops, wordsPer)
}

// Broadcast charges the reverse flow: each center sends wordsPer words to
// every member, relayed hop by hop. Cost structure is identical to
// Convergecast (same tree, opposite direction).
func (nw *Network) Broadcast(step string, center []int, maxHops int, wordsPer int64) {
	nw.chargeTreeTraffic(step, center, maxHops, wordsPer)
}

// chargeTreeTraffic computes, for every vertex, its hop distance to its
// center (BFS from each center, restricted to that center's members), and
// charges one message per hop per member plus maxHops rounds.
func (nw *Network) chargeTreeTraffic(step string, center []int, maxHops int, wordsPer int64) {
	if maxHops < 1 {
		maxHops = 1
	}
	var messages int64
	// uncharged[c] counts c's members not yet charged their hop distance.
	uncharged := make([]int64, len(center))
	for v, c := range center {
		if c >= 0 && c != v {
			uncharged[c]++
		}
	}
	for c, left := range uncharged {
		if left == 0 {
			continue
		}
		for _, vh := range nw.search.HopBall(nw.g, c, maxHops) {
			if vh.V != c && center[vh.V] == c {
				messages += int64(vh.Hops)
				left--
			}
		}
		// Members beyond the hop bound (possible when cluster paths leave
		// the cluster) fall back to the bound.
		messages += left * int64(maxHops)
	}
	nw.Charge(step, maxHops, messages, messages*wordsPer)
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
