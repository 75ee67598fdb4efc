// Package cluster implements the clustering machinery of the paper: cluster
// covers of the partial spanner (§2.2.1, §3.2.1) and the Das–Narasimhan
// cluster graph used to answer shortest-path queries approximately
// (§2.2.3). Both the sequential peeling construction and the MIS-based
// distributed construction are provided; they produce different covers but
// both satisfy the cover contract (radius bound, full coverage, separated
// centers), which is what all downstream steps rely on.
//
// The cluster graph H is built a row at a time, so a builder pays only for
// the rows its searches on H reach. Most of its queries need none: H-
// distances are never below G'-distances, and H joins two singleton
// clusters that a G'-edge joins by an edge no heavier, so G' answers for H
// wherever its paths avoid the clusters with a second member.
//
// A cluster with a second member forms only around vertices with an edge
// no heavier than the cover radius, and in a builder's phase those are few:
// the partial spanner's edges are mostly longer than δ·W_{i−1}. A cover
// therefore stores only those clusters, a CSR over the centers with a
// second member, and answers "singleton" for every other vertex. The
// builder keeps the vertices with such an edge as its phases go (the
// radius only grows, and the edges it counts stay), and the peel and the
// attachment to elected centers run over them alone, so a phase's cover
// costs those vertices, not n. GreedyCover finds them by scanning every
// vertex, for callers that need a cover once.
//
// The cluster graph's construction stamps per-center scratch arrays instead
// of keying maps by center pair. The cover and the cluster graph are both
// rebuilt in place: a builder passes the same ones every phase, so their
// storage is allocated once per build. Theorem 9 keeps each phase local,
// so the searches are cheap and the bookkeeping around them must be too.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"topoctl/internal/graph"
)

// Cover is a cluster cover of a graph: every vertex belongs to exactly one
// cluster (we materialize the cover as a partition; the paper allows
// overlap, and a partition is a special case), every cluster has
// shortest-path radius at most Radius around its center, and distinct
// centers are more than Radius apart in the underlying graph metric
// (guaranteed by both constructions below).
//
// Only a vertex with an edge of weight at most Radius can share a cluster:
// a member lies in its center's ball, whose paths end and begin with such
// an edge. Every other vertex is its own singleton center, at distance 0,
// and the cover stores nothing for it beyond Center and Dist. A cover
// passed back to a construction must be one a construction returned: the
// next build resets only the clusters with a second member.
type Cover struct {
	// Radius is the cover radius (in the graph's weight units).
	Radius float64
	// Center[v] is the cluster center vertex of v (Center[c] == c for
	// centers).
	Center []int
	// Dist[v] is the shortest-path distance from Center[v] to v in the
	// clustered graph; Dist[c] == 0 for centers.
	Dist []float64
	// Clustered lists the centers whose cluster has a second member, in
	// increasing vertex order.
	Clustered []int
	// Visits counts the per-vertex steps the last construction took
	// outside its ball searches: the vertices it reset from the cover
	// before, the vertices it scanned for an edge within Radius, and the
	// vertices it peeled over.
	Visits int
	// members and start are the membership CSR of the clustered centers:
	// the members of Clustered[k] are members[start[k]:start[k+1]], in
	// increasing vertex order. slot[c] is k+1 when c == Clustered[k], and
	// 0 for every other vertex.
	members, start, slot []int
	// short is GreedyCover's scratch: the vertices with an edge within
	// Radius.
	short []int
}

// IsCenter reports whether v is a cluster center.
func (c *Cover) IsCenter(v int) bool { return c.Center[v] == v }

// InCluster reports whether v's cluster has a second member, from the
// clustered centers' slot table rather than the membership CSR.
func (c *Cover) InCluster(v int) bool { return c.slot[c.Center[v]] > 0 }

// Members returns the member vertices of center ctr (including ctr
// itself) in increasing order; it is empty if ctr is not a center. The
// slice aliases the cover and must not be modified.
func (c *Cover) Members(ctr int) []int {
	if k := c.slot[ctr]; k > 0 {
		return c.members[c.start[k-1]:c.start[k]:c.start[k]]
	}
	if c.Center[ctr] == ctr {
		// A singleton center: Center[ctr] holds ctr itself.
		return c.Center[ctr : ctr+1 : ctr+1]
	}
	return nil
}

// Centers returns all cluster centers in increasing vertex order. It scans
// every vertex, so a builder's phase reads Clustered instead.
func (c *Cover) Centers() []int {
	var out []int
	for v, ctr := range c.Center {
		if ctr == v {
			out = append(out, v)
		}
	}
	return out
}

// reset readies c, reusing its storage, for a rebuild over n vertices at
// the given radius with every vertex its own singleton center, and returns
// it; a nil c is allocated. A cover over n vertices already has every
// vertex outside its clustered centers' clusters in that state, so only
// those clusters are reset.
func (c *Cover) reset(n int, radius float64) *Cover {
	if c == nil {
		c = new(Cover)
	}
	c.Radius, c.Visits = radius, 0
	if len(c.Center) != n {
		c.Center = slices.Grow(c.Center[:0], n)[:n]
		c.Dist = slices.Grow(c.Dist[:0], n)[:n]
		c.slot = slices.Grow(c.slot[:0], n)[:n]
		for v := range c.Center {
			c.Center[v] = v
		}
		clear(c.Dist)
		clear(c.slot)
		c.Visits = n
	} else {
		for _, ctr := range c.Clustered {
			members := c.Members(ctr)
			for _, v := range members {
				c.Center[v], c.Dist[v] = v, 0
			}
			c.slot[ctr] = 0
			c.Visits += len(members)
		}
	}
	c.Clustered = c.Clustered[:0]
	return c
}

// finalize lists Clustered and builds their membership CSR from Center.
// short must list, in increasing order, every vertex of a cluster with a
// second member: filling members in that order leaves every group sorted.
func (c *Cover) finalize(short []int) {
	for _, v := range short {
		if ctr := c.Center[v]; ctr != v && c.slot[ctr] == 0 {
			c.slot[ctr] = -1 // listed
			c.Clustered = append(c.Clustered, ctr)
		}
	}
	slices.Sort(c.Clustered)
	k := len(c.Clustered)
	for i, ctr := range c.Clustered {
		c.slot[ctr] = i + 1
	}
	// start[i+1] counts Clustered[i]'s members, then the prefix sums turn
	// start[i] into the offset of Clustered[i]'s group.
	c.start = slices.Grow(c.start[:0], k+1)[:k+1]
	clear(c.start)
	for _, v := range short {
		if i := c.slot[c.Center[v]]; i > 0 {
			c.start[i]++
		}
	}
	for i := 1; i <= k; i++ {
		c.start[i] += c.start[i-1]
	}
	c.members = slices.Grow(c.members[:0], c.start[k])[:c.start[k]]
	for _, v := range short {
		if i := c.slot[c.Center[v]]; i > 0 {
			c.members[c.start[i-1]] = v
			c.start[i-1]++
		}
	}
	// Each start[i] has advanced to the end of its group, which is where
	// the next group begins: shift by one to restore the offsets.
	copy(c.start[1:], c.start[:k])
	c.start[0] = 0
}

// appendShort appends to dst, in increasing order, the vertices of g with
// an edge of weight at most radius.
func appendShort(dst []int, g graph.Topology, radius float64) []int {
	for v := 0; v < g.N(); v++ {
		if slices.ContainsFunc(g.Neighbors(v), func(h graph.Halfedge) bool { return h.W <= radius }) {
			dst = append(dst, v)
		}
	}
	return dst
}

// PeelCover builds a cluster cover of g with the given radius by
// sequential peeling (§2.2.1): repeatedly take the smallest-ID uncovered
// vertex u, make it a center, and claim every still-uncovered vertex within
// shortest-path distance radius of u. Centers are pairwise more than radius
// apart because a later center was, by construction, not claimed by any
// earlier one.
//
// short must list, in increasing order, every vertex of g with an edge of
// weight at most radius (extra vertices are harmless). A ball of radius
// radius reaches only such vertices, so every other vertex is its own
// ball and a singleton center, whatever the peeling order: the peel runs
// over short alone, and costs short and the clusters of the cover c held
// before, not n. A builder keeps short across its phases, where the
// radius grows and a vertex with a short edge keeps it.
//
// The cover is built into c, overwriting it and reusing its storage, and
// returned; pass nil for a new cover.
func PeelCover(g graph.Topology, radius float64, short []int, c *Cover) *Cover {
	c = c.reset(g.N(), radius)
	for _, u := range short {
		c.Center[u] = -1
	}
	s := graph.AcquireSearcher(g.N())
	defer graph.ReleaseSearcher(s)
	for _, u := range short {
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
	c.finalize(short)
	c.Visits += len(short)
	return c
}

// GreedyCover is PeelCover over the vertices of g with an edge of weight
// at most radius, found by scanning every vertex: the cover for a caller
// that does not track them.
func GreedyCover(g graph.Topology, radius float64, c *Cover) *Cover {
	if c == nil {
		c = new(Cover)
	}
	c.short = appendShort(c.short[:0], g, radius)
	PeelCover(g, radius, c.short, c)
	c.Visits += g.N()
	return c
}

// CentersBySize returns the cluster centers ordered by decreasing member
// count, ties broken by increasing vertex id. Big clusters first is the
// landmark-quality heuristic the hub-label oracle (internal/labels) seeds
// its vertex ordering with: a center that covers many vertices sits on many
// shortest paths, so ranking it early keeps the pruned label sets small.
func (c *Cover) CentersBySize() []int {
	out := c.Centers()
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
// (matching the paper's distributed attachment rule, §3.2.1). As in
// PeelCover, short lists in increasing order every vertex of g with an
// edge of weight at most radius (extra vertices are harmless): only those
// share a cluster, every other vertex is its own singleton center, and
// the attachment runs over short alone. It returns an error if some vertex
// of short is not within radius of any center — i.e. the center set is
// not dominating at this radius. Like PeelCover it builds into c (nil for
// a new cover); on error c's contents are unspecified.
func CoverFromCenters(g graph.Topology, radius float64, short, centers []int, c *Cover) (*Cover, error) {
	c = c.reset(g.N(), radius)
	for _, v := range short {
		c.Center[v] = -1
	}
	s := graph.AcquireSearcher(g.N())
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
	for _, v := range short {
		if c.Center[v] == -1 {
			// Half built: make the next reset start from scratch.
			c.Center, c.Clustered = c.Center[:0], c.Clustered[:0]
			return nil, fmt.Errorf("cluster: vertex %d not covered by any center at radius %v", v, radius)
		}
	}
	c.finalize(short)
	c.Visits += len(short)
	return c, nil
}
