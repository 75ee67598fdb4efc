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

// Luby runs Luby's randomized MIS on the listed vertices ids of an
// n-vertex graph whose other vertices are isolated. adj[i] lists, by
// position in ids, the neighbors of vertex ids[i]; the relation must be
// symmetric and ids increasing. A nil ids lists the vertices 0 to
// len(adj)−1, so Luby(adj, nil, len(adj), rng) runs on the whole graph adj.
// InMIS is indexed as adj is: the unlisted vertices are isolated, so they
// all join. The rng makes runs deterministic under a fixed seed.
//
// Each iteration: every active vertex draws a random 64-bit priority; a
// vertex joins the MIS if its (priority, id) pair is strictly the largest in
// its active closed neighborhood; MIS vertices and their neighbors
// deactivate. Two communication rounds are charged per iteration.
//
// Isolated vertices join in the first iteration, so only listed vertices
// stay active after it. That iteration still draws all n priorities in
// vertex order and keeps the listed vertices' draws, so the rounds, the
// set and the rng stream are those of the run over all n vertices, at one
// draw per unlisted vertex.
func Luby(adj [][]int, ids []int, n int, rng *rand.Rand) Result {
	m := len(adj)
	res := Result{InMIS: make([]bool, m)}
	if n == 0 {
		return res
	}
	active := make([]bool, m)
	for i := range active {
		active[i] = true
	}
	nActive := m
	prio := make([]uint64, m)
	for v, next := 0, 0; v < n; v++ {
		x := rng.Uint64()
		if next < m && (ids == nil || ids[next] == v) {
			prio[next] = x
			next++
		}
	}
	var joined []int
	for {
		res.Rounds += 2
		joined = joined[:0]
		for v := 0; v < m; v++ {
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
		if nActive == 0 {
			return res
		}
		for v := 0; v < m; v++ {
			if active[v] {
				prio[v] = rng.Uint64()
			}
		}
	}
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
