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
// len(adj)−1, so Luby(adj, nil, len(adj), seed, call) runs on the whole
// graph adj. InMIS is indexed as adj is: the unlisted vertices are
// isolated, so they all join.
//
// Each iteration: every active vertex draws a 64-bit priority; a vertex
// joins the MIS if its (priority, id) pair is strictly the largest in its
// active closed neighborhood; MIS vertices and their neighbors deactivate.
// Two communication rounds are charged per iteration.
//
// A draw is counter-based: a fixed mix of (seed, call, vertex id,
// iteration), so runs are deterministic under a fixed seed, a caller that
// runs several MIS computations numbers them by call, and a vertex's
// draws do not depend on which other vertices are listed. The isolated
// vertices join in the first iteration whatever they would draw, so they
// draw nothing: the set and the rounds are those of the run over all n
// vertices, at the cost of the listed ones.
func Luby(adj [][]int, ids []int, n int, seed int64, call int) Result {
	m := len(adj)
	res := Result{InMIS: make([]bool, m)}
	if n == 0 {
		return res
	}
	key := splitmix64(splitmix64(uint64(seed)) ^ uint64(call))
	active := make([]bool, m)
	for i := range active {
		active[i] = true
	}
	nActive := m
	prio := make([]uint64, m)
	var joined []int
	for iter := 0; ; iter++ {
		res.Rounds += 2
		for v := 0; v < m; v++ {
			if active[v] {
				id := v
				if ids != nil {
					id = ids[v]
				}
				prio[v] = priority(key, id, iter)
			}
		}
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
	}
}

// priority is vertex id's draw in iteration iter of the MIS call whose
// (seed, call) mix is key.
func priority(key uint64, id, iter int) uint64 {
	return splitmix64(splitmix64(key^uint64(id)) ^ uint64(iter))
}

// splitmix64 is the output mix of Steele, Lea and Flood's SplitMix64
// generator: a bijection on 64-bit words whose outputs pass as random for
// distinct inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
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
