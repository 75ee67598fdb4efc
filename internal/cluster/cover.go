// Package cluster implements the clustering machinery of the paper: cluster
// covers of the partial spanner (§2.2.1, §3.2.1) and the Das–Narasimhan
// cluster graph used to answer shortest-path queries approximately
// (§2.2.3). Both the sequential peeling construction and the MIS-based
// distributed construction are provided; they produce different covers but
// both satisfy the cover contract (radius bound, full coverage, separated
// centers), which is what all downstream steps rely on.
//
// Every per-phase structure here is a flat slice indexed by vertex: a
// cover's membership is a CSR built by one counting pass over Center, and
// the cluster graph's construction stamps per-center scratch arrays instead
// of keying maps by center pair. Theorem 9 keeps each phase local, so the
// searches are cheap and the bookkeeping around them must be too.
package cluster

import (
	"fmt"
	"sort"

	"topoctl/internal/graph"
)

// Cover is a cluster cover of a graph: every vertex belongs to exactly one
// cluster (we materialize the cover as a partition; the paper allows
// overlap, and a partition is a special case), every cluster has
// shortest-path radius at most Radius around its center, and distinct
// centers are more than Radius apart in the underlying graph metric
// (guaranteed by both constructions below).
type Cover struct {
	// Radius is the cover radius (in the graph's weight units).
	Radius float64
	// Center[v] is the cluster center vertex of v (Center[c] == c for
	// centers).
	Center []int
	// Dist[v] is the shortest-path distance from Center[v] to v in the
	// clustered graph; Dist[c] == 0 for centers.
	Dist []float64
	// Centers lists all cluster centers in increasing vertex order.
	Centers []int
	// members and start are the membership CSR: the members of center c
	// are members[start[c]:start[c+1]], in increasing vertex order; the
	// range is empty for non-centers. start has N()+1 entries.
	members []int
	start   []int
}

// IsCenter reports whether v is a cluster center.
func (c *Cover) IsCenter(v int) bool { return c.Center[v] == v }

// Members returns the member vertices of center ctr (including ctr
// itself) in increasing order; it is empty if ctr is not a center. The
// slice aliases the cover and must not be modified.
func (c *Cover) Members(ctr int) []int {
	return c.members[c.start[ctr]:c.start[ctr+1]:c.start[ctr+1]]
}

// finalize builds the membership CSR and Centers from Center with one
// counting pass: filling members in vertex order leaves every group
// sorted, and scanning the counts in vertex order lists Centers ascending.
func (c *Cover) finalize() {
	n := len(c.Center)
	c.start = make([]int, n+1)
	for _, ctr := range c.Center {
		c.start[ctr]++
	}
	c.Centers = c.Centers[:0]
	sum := 0
	for v, cnt := range c.start[:n] {
		if cnt > 0 {
			c.Centers = append(c.Centers, v)
		}
		c.start[v] = sum
		sum += cnt
	}
	c.members = make([]int, n)
	for v, ctr := range c.Center {
		c.members[c.start[ctr]] = v
		c.start[ctr]++
	}
	// Each start[ctr] has advanced to the end of its group, which is where
	// the next group begins: shift by one to restore the offsets.
	copy(c.start[1:], c.start[:n])
	c.start[0] = 0
}

// GreedyCover builds a cluster cover of g with the given radius by
// sequential peeling (§2.2.1): repeatedly take the smallest-ID uncovered
// vertex u, make it a center, and claim every still-uncovered vertex within
// shortest-path distance radius of u. Centers are pairwise more than radius
// apart because a later center was, by construction, not claimed by any
// earlier one.
func GreedyCover(g graph.Topology, radius float64) *Cover {
	n := g.N()
	c := &Cover{Radius: radius, Center: make([]int, n), Dist: make([]float64, n)}
	for i := range c.Center {
		c.Center[i] = -1
	}
	s := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(s)
	for u := 0; u < n; u++ {
		if c.Center[u] != -1 {
			continue
		}
		for _, vd := range s.Ball(g, u, radius) {
			if c.Center[vd.V] == -1 {
				c.Center[vd.V] = u
				c.Dist[vd.V] = vd.D
			}
		}
	}
	c.finalize()
	return c
}

// CentersBySize returns the cluster centers ordered by decreasing member
// count, ties broken by increasing vertex id. Big clusters first is the
// landmark-quality heuristic the hub-label oracle (internal/labels) seeds
// its vertex ordering with: a center that covers many vertices sits on many
// shortest paths, so ranking it early keeps the pruned label sets small.
func (c *Cover) CentersBySize() []int {
	out := append([]int(nil), c.Centers...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := len(c.Members(out[i])), len(c.Members(out[j]))
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// CoverFromCenters builds a cover with the given centers: every vertex
// attaches to the center with the highest ID among those within radius
// (matching the paper's distributed attachment rule, §3.2.1). It returns an
// error if some vertex is not within radius of any center — i.e. the center
// set is not dominating at this radius.
func CoverFromCenters(g graph.Topology, radius float64, centers []int) (*Cover, error) {
	n := g.N()
	c := &Cover{Radius: radius, Center: make([]int, n), Dist: make([]float64, n)}
	for i := range c.Center {
		c.Center[i] = -1
	}
	s := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(s)
	for _, ctr := range centers {
		for _, vd := range s.Ball(g, ctr, radius) {
			// Highest-ID center within radius wins the attachment.
			if cur := c.Center[vd.V]; cur == -1 || ctr > cur {
				c.Center[vd.V], c.Dist[vd.V] = ctr, vd.D
			}
		}
	}
	// Centers own themselves. When centers come from an MIS of the
	// "within radius" graph no center lies in another's ball, so this only
	// matters for hand-constructed center sets.
	for _, ctr := range centers {
		c.Center[ctr], c.Dist[ctr] = ctr, 0
	}
	for v := 0; v < n; v++ {
		if c.Center[v] == -1 {
			return nil, fmt.Errorf("cluster: vertex %d not covered by any center at radius %v", v, radius)
		}
	}
	c.finalize()
	return c, nil
}
