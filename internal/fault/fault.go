// Package fault implements the k-fault-tolerant spanner extension the paper
// announces in §1.6.1 (after Czumaj–Zhao [2]): a spanning subgraph G' is a
// k-vertex (k-edge) fault-tolerant t-spanner of G if for every fault set S
// of at most k vertices (edges), G' − S is a t-spanner of G − S.
//
// The construction generalizes the greedy rule: an edge {u,v} is rejected
// only if the current spanner already contains k+1 pairwise disjoint
// t-paths between u and v (vertex-disjoint or edge-disjoint according to
// the mode) — then any k faults leave at least one t-path intact. Disjoint
// paths are packed greedily (find a shortest t-path, delete it, repeat);
// greedy packing can under-count the true disjoint-path number, which only
// ever makes the construction keep extra edges, never break fault
// tolerance. Random fault injection (CheckFaults) validates the guarantee
// empirically.
package fault

import (
	"fmt"
	"math/rand"

	"topoctl/internal/graph"
	"topoctl/internal/greedy"
)

// Mode selects the fault model.
type Mode int

// Fault models.
const (
	// EdgeFaults protects against up to k failed links.
	EdgeFaults Mode = iota + 1
	// VertexFaults protects against up to k failed nodes (a strictly
	// stronger requirement).
	VertexFaults
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case EdgeFaults:
		return "edge"
	case VertexFaults:
		return "vertex"
	default:
		return "unknown"
	}
}

// Spanner builds a k-fault-tolerant t-spanner of g by the generalized
// greedy rule. k = 0 degenerates to the plain SEQ-GREEDY spanner.
func Spanner(g *graph.Graph, t float64, k int, mode Mode) (*graph.Graph, error) {
	if t <= 1 {
		return nil, fmt.Errorf("fault: stretch t must exceed 1, got %v", t)
	}
	if k < 0 {
		return nil, fmt.Errorf("fault: k must be non-negative, got %d", k)
	}
	if k == 0 {
		return greedy.Spanner(g, t), nil
	}
	if mode != EdgeFaults && mode != VertexFaults {
		return nil, fmt.Errorf("fault: unknown mode %d", mode)
	}
	sp := graph.New(g.N())
	Run(sp, g.Edges(), t, k, mode)
	return sp, nil
}

// Run is the fault-tolerant analogue of greedy.Run: it processes edges in
// the given order against the mutable spanner sp, adding an edge unless sp
// already contains k+1 pairwise disjoint paths of length at most t times
// the edge weight. It returns how many edges it added. Phase 0 of the
// relaxed algorithm reuses it per clique when building fault-tolerant
// spanners.
func Run(sp *graph.Graph, edges []graph.Edge, t float64, k int, mode Mode) int {
	added := 0
	for _, e := range edges {
		if sp.HasEdge(e.U, e.V) {
			continue
		}
		if countDisjointPaths(sp, e.U, e.V, t*e.W, k+1, mode) >= k+1 {
			continue
		}
		sp.AddEdge(e.U, e.V, e.W)
		added++
	}
	return added
}

// DisjointPathsAtLeast reports whether g contains at least want pairwise
// disjoint uv-paths of length at most bound (greedy packing; may
// under-count, never over-counts).
func DisjointPathsAtLeast(g *graph.Graph, u, v int, bound float64, want int, mode Mode) bool {
	return countDisjointPaths(g, u, v, bound, want, mode) >= want
}

// countDisjointPaths greedily packs up to want disjoint uv-paths of length
// at most bound in sp, returning how many it found. Paths are made disjoint
// by deleting their edges (EdgeFaults) or their interior vertices
// (VertexFaults) from a working copy between iterations.
func countDisjointPaths(sp *graph.Graph, u, v int, bound float64, want int, mode Mode) int {
	work := sp.Clone()
	s := graph.AcquireSearcher(sp.N())
	defer graph.ReleaseSearcher(s)
	found := 0
	for found < want {
		path, _, ok := s.PathTo(work, u, v, bound)
		if !ok {
			break
		}
		found++
		if mode == EdgeFaults {
			for i := 0; i+1 < len(path); i++ {
				work.RemoveEdge(path[i], path[i+1])
			}
		} else {
			for _, x := range path[1 : len(path)-1] {
				removeVertexEdges(work, x)
			}
			// Direct edge u-v (no interior) can be reused only once.
			if len(path) == 2 {
				work.RemoveEdge(u, v)
			}
		}
	}
	return found
}

func removeVertexEdges(g *graph.Graph, x int) {
	hs := append([]graph.Halfedge(nil), g.Neighbors(x)...)
	for _, h := range hs {
		g.RemoveEdge(x, h.To)
	}
}

// ApplyVertexFaults returns a mutable copy of t with every vertex in down
// isolated: all incident edges removed, the vertex itself retained so ids
// stay stable. Out-of-range and duplicate entries are ignored. It is the
// reusable fault-set applier shared by CheckFaults and the failure-impact
// analytics (internal/analyze): callers materialize the faulted graph once
// and run any number of read-only searches against it.
func ApplyVertexFaults(t graph.Topology, down []int) *graph.Graph {
	g := thaw(t)
	for _, x := range down {
		if x >= 0 && x < g.N() {
			removeVertexEdges(g, x)
		}
	}
	return g
}

// ApplyEdgeFaults returns a mutable copy of t with the listed edges
// removed; entries naming absent edges are ignored.
func ApplyEdgeFaults(t graph.Topology, down []graph.Edge) *graph.Graph {
	g := thaw(t)
	for _, e := range down {
		g.RemoveEdge(e.U, e.V)
	}
	return g
}

// thaw materializes a mutable copy of any read-only topology, taking the
// cheap path for the two concrete representations.
func thaw(t graph.Topology) *graph.Graph {
	switch g := t.(type) {
	case *graph.Graph:
		return g.Clone()
	case *graph.Frozen:
		return g.Thaw()
	default:
		return graph.FromEdges(t.N(), t.EdgesUnordered())
	}
}

// CheckResult summarizes a fault-injection validation run.
type CheckResult struct {
	Trials     int
	Violations int
	// WorstStretch is the largest post-fault stretch observed across all
	// trials (1 if no trial had any comparable pair).
	WorstStretch float64
}

// CheckFaults validates fault tolerance empirically: for trials random
// fault sets of exactly k elements, it removes the faults from both g and
// sp and verifies sp−S is still a t-spanner of g−S (stretch measured over
// the surviving g-edges, per-component). Both graphs may be either
// representation (mutable or frozen); faults are applied to working copies.
func CheckFaults(g, sp graph.Topology, t float64, k, trials int, mode Mode, seed int64) CheckResult {
	rng := rand.New(rand.NewSource(seed))
	res := CheckResult{Trials: trials, WorstStretch: 1}
	s := graph.AcquireSearcher(g.N())
	defer graph.ReleaseSearcher(s)
	for trial := 0; trial < trials; trial++ {
		var gf, sf *graph.Graph
		if mode == VertexFaults {
			down := make([]int, k)
			for i := range down {
				down[i] = rng.Intn(g.N())
			}
			gf = ApplyVertexFaults(g, down)
			sf = ApplyVertexFaults(sp, down)
		} else {
			edges := graph.SortedEdges(sp)
			down := make([]graph.Edge, 0, k)
			for i := 0; i < k && len(edges) > 0; i++ {
				j := rng.Intn(len(edges))
				down = append(down, edges[j])
				edges = append(edges[:j], edges[j+1:]...)
			}
			gf = ApplyEdgeFaults(g, down)
			sf = ApplyEdgeFaults(sp, down)
		}
		worst := 1.0
		violated := false
		for _, e := range gf.EdgesUnordered() {
			d, ok := s.DijkstraTarget(sf, e.U, e.V, t*e.W)
			if !ok {
				violated = true
				// Quantify how bad: expand the bound to find the real
				// stretch (or +Inf if disconnected).
				if d2, ok2 := s.DijkstraTarget(sf, e.U, e.V, 64*t*e.W); ok2 {
					if s := d2 / e.W; s > worst {
						worst = s
					}
				} else {
					worst = 1e18
				}
				continue
			}
			if s := d / e.W; s > worst {
				worst = s
			}
		}
		if violated {
			res.Violations++
		}
		if worst > res.WorstStretch {
			res.WorstStretch = worst
		}
	}
	return res
}
