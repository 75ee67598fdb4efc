// Package mis provides maximal independent set algorithms.
//
// The paper invokes the O(log* n)-round MIS algorithm of Kuhn, Moscibroda
// and Wattenhofer [11] on derived graphs that are unit ball graphs of
// constant doubling dimension (Lemmas 15 and 20). Reimplementing the full
// KMW machinery is out of scope (it is a separate paper), so this package
// substitutes Luby's classical randomized distributed MIS, which
// terminates in O(log n) rounds with high probability and provides the same
// independence/maximality contract. The spanner's output quality does not
// depend on which MIS is used — only the round count does — and the
// experiment harness reports measured rounds alongside both analytic curves.
package mis

import "math/rand"

// Result is the outcome of a distributed MIS computation.
type Result struct {
	// InMIS[v] reports membership of vertex v.
	InMIS []bool
	// Rounds is the number of synchronous communication rounds consumed by
	// the protocol on the derived graph (two rounds per Luby iteration:
	// exchange random values, announce joins).
	Rounds int
}

// Luby runs Luby's randomized MIS on the graph given as adjacency lists.
// adj[v] lists the neighbors of v; the relation must be symmetric. Isolated
// vertices join the MIS in the first iteration. The rng makes runs
// deterministic under a fixed seed.
//
// Each iteration: every active vertex draws a random 64-bit priority; a
// vertex joins the MIS if its (priority, id) pair is strictly the largest in
// its active closed neighborhood; MIS vertices and their neighbors
// deactivate. Two communication rounds are charged per iteration.
func Luby(adj [][]int, rng *rand.Rand) Result {
	n := len(adj)
	res := Result{InMIS: make([]bool, n)}
	active := make([]bool, n)
	var nActive int
	for v := range active {
		active[v] = true
	}
	nActive = n
	prio := make([]uint64, n)
	for nActive > 0 {
		res.Rounds += 2
		for v := 0; v < n; v++ {
			if active[v] {
				prio[v] = rng.Uint64()
			}
		}
		var joined []int
		for v := 0; v < n; v++ {
			if !active[v] {
				continue
			}
			best := true
			for _, w := range adj[v] {
				if !active[w] {
					continue
				}
				if prio[w] > prio[v] || (prio[w] == prio[v] && w > v) {
					best = false
					break
				}
			}
			if best {
				joined = append(joined, v)
			}
		}
		for _, v := range joined {
			res.InMIS[v] = true
			if active[v] {
				active[v] = false
				nActive--
			}
			for _, w := range adj[v] {
				if active[w] {
					active[w] = false
					nActive--
				}
			}
		}
	}
	return res
}

// Greedy computes the lexicographically-first MIS by vertex ID: scan
// vertices in increasing ID order, adding a vertex whenever none of its
// neighbors has been added. Deterministic; used as the sequential reference
// implementation and for differential testing against Luby.
func Greedy(adj [][]int) []bool {
	n := len(adj)
	in := make([]bool, n)
	blocked := make([]bool, n)
	for v := 0; v < n; v++ {
		if blocked[v] {
			continue
		}
		in[v] = true
		for _, w := range adj[v] {
			blocked[w] = true
		}
	}
	return in
}
