// Package baseline implements the classical topology-control structures the
// paper positions itself against (§1.3–1.4): Yao graphs, Gabriel graphs,
// relative neighborhood graphs (RNG), XTC (Wattenhofer–Zollinger), LMST
// (local MST), the plain MST, and the exact sequential greedy spanner.
// The T5 experiment compares all of them against the relaxed greedy output
// on stretch, degree, weight and power cost.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
)

// Kind names a baseline construction.
type Kind int

// Baseline kinds.
const (
	// KindMST is the minimum spanning tree of the input graph: the weight
	// lower bound for every connected topology, with unbounded stretch.
	KindMST Kind = iota + 1
	// KindYao keeps, per node and per cone of a Yao partition, the
	// shortest outgoing edge; the result is symmetrized by union.
	KindYao
	// KindGabriel keeps edge {u,v} iff the ball with diameter uv contains
	// no other node.
	KindGabriel
	// KindRNG keeps edge {u,v} iff no witness w has max(|uw|,|wv|) < |uv|
	// (the relative neighborhood graph, a subgraph of Gabriel).
	KindRNG
	// KindXTC is Wattenhofer–Zollinger's XTC: u drops its link to v iff
	// some w ranks better than v in both u's and v's orderings.
	KindXTC
	// KindLMST is Li–Hou–Sha's local MST: u keeps {u,v} iff v is u's
	// MST-neighbor in the MST of u's closed 1-hop neighborhood; the result
	// is symmetrized by intersection (the standard LMST- variant made
	// symmetric).
	KindLMST
	// KindGreedy is the exact sequential greedy t-spanner (SEQ-GREEDY).
	KindGreedy
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindMST:
		return "mst"
	case KindYao:
		return "yao"
	case KindGabriel:
		return "gabriel"
	case KindRNG:
		return "rng"
	case KindXTC:
		return "xtc"
	case KindLMST:
		return "lmst"
	case KindGreedy:
		return "seq-greedy"
	default:
		return "unknown"
	}
}

// Kinds lists every baseline in presentation order.
func Kinds() []Kind {
	return []Kind{KindMST, KindYao, KindGabriel, KindRNG, KindXTC, KindLMST, KindGreedy}
}

// yaoTheta is Yao's cone angle, π/3: >= 6 cones in the plane, the
// classical choice guaranteeing connectivity.
const yaoTheta = math.Pi / 3

// Options tunes baseline construction.
type Options struct {
	// T is the stretch parameter for KindGreedy (default 1.5).
	T float64
}

// Build constructs the requested baseline topology over the α-UBG g
// embedded at points. Edge weights of the result are copied from g
// (Euclidean lengths).
func Build(kind Kind, points []geom.Point, g graph.Topology, opts Options) (*graph.Graph, error) {
	if opts.T <= 1 {
		opts.T = 1.5
	}
	switch kind {
	case KindMST:
		return graph.FromEdges(g.N(), graph.MSTOf(g)), nil
	case KindYao:
		return Yao(points, g, yaoTheta), nil
	case KindGabriel:
		return Gabriel(points, g), nil
	case KindRNG:
		return RNG(points, g), nil
	case KindXTC:
		return XTC(g), nil
	case KindLMST:
		return LMST(g), nil
	case KindGreedy:
		return greedy.Spanner(g, opts.T), nil
	default:
		return nil, fmt.Errorf("baseline: unknown kind %d", kind)
	}
}

// Yao builds the Yao graph restricted to g's edges: for every node and
// every cone of a theta-partition, the shortest incident g-edge whose
// direction falls in the cone is kept. The union over directions makes the
// result symmetric.
func Yao(points []geom.Point, g graph.Topology, theta float64) *graph.Graph {
	if g.N() == 0 {
		return graph.New(0)
	}
	cp := geom.NewConePartition(points[0].Dim(), theta)
	out := graph.New(g.N())
	type pick struct {
		v int
		w float64
	}
	for u := 0; u < g.N(); u++ {
		best := make(map[int]pick)
		for _, h := range g.Neighbors(u) {
			c := cp.AssignEdge(points[u], points[h.To])
			cur, ok := best[c]
			if !ok || h.W < cur.w || (h.W == cur.w && h.To < cur.v) {
				best[c] = pick{v: h.To, w: h.W}
			}
		}
		for _, p := range best {
			if !out.HasEdge(u, p.v) {
				out.AddEdge(u, p.v, p.w)
			}
		}
	}
	return out
}

// Gabriel builds the Gabriel graph restricted to g's edges: {u,v} survives
// iff no third node lies strictly inside the ball with diameter uv. The
// witness search is restricted to the graph-neighbors of u and v, which is
// exhaustive on an α-UBG whenever |uv| <= α (every witness inside the
// diameter ball is within |uv| of both endpoints); for grey-zone edges the
// restriction can only keep extra edges, never drop a valid one.
func Gabriel(points []geom.Point, g graph.Topology) *graph.Graph {
	out := graph.New(g.N())
	for _, e := range g.EdgesUnordered() {
		mid := geom.Midpoint(points[e.U], points[e.V])
		r := e.W / 2
		if !hasWitnessInBall(points, g, e.U, e.V, mid, r) {
			out.AddEdge(e.U, e.V, e.W)
		}
	}
	return out
}

func hasWitnessInBall(points []geom.Point, g graph.Topology, u, v int, center geom.Point, r float64) bool {
	const eps = 1e-12
	check := func(w int) bool {
		return w != u && w != v && geom.Dist(points[w], center) < r-eps
	}
	for _, h := range g.Neighbors(u) {
		if check(h.To) {
			return true
		}
	}
	for _, h := range g.Neighbors(v) {
		if check(h.To) {
			return true
		}
	}
	return false
}

// RNG builds the relative neighborhood graph restricted to g's edges:
// {u,v} survives iff no witness w (again drawn from the neighbors of u and
// v, exhaustive by the lune geometry on an α-UBG) satisfies
// max(|uw|, |wv|) < |uv|.
func RNG(points []geom.Point, g graph.Topology) *graph.Graph {
	const eps = 1e-12
	out := graph.New(g.N())
	for _, e := range g.EdgesUnordered() {
		pu, pv := points[e.U], points[e.V]
		witness := false
		scan := func(w int) bool {
			if w == e.U || w == e.V {
				return false
			}
			pw := points[w]
			return geom.Dist(pu, pw) < e.W-eps && geom.Dist(pv, pw) < e.W-eps
		}
		for _, h := range g.Neighbors(e.U) {
			if scan(h.To) {
				witness = true
				break
			}
		}
		if !witness {
			for _, h := range g.Neighbors(e.V) {
				if scan(h.To) {
					witness = true
					break
				}
			}
		}
		if !witness {
			out.AddEdge(e.U, e.V, e.W)
		}
	}
	return out
}

// XTC implements Wattenhofer–Zollinger's XTC protocol: each node u orders
// its neighbors by (weight, id); u keeps its link to v unless some w exists
// that is better-ranked than v at BOTH u and v. The construction is
// symmetric by design and preserves connectivity of the input.
func XTC(g graph.Topology) *graph.Graph {
	n := g.N()
	// rank[u][w] = position of w in u's order; absent = not a neighbor.
	rank := make([]map[int]int, n)
	for u := 0; u < n; u++ {
		hs := append([]graph.Halfedge(nil), g.Neighbors(u)...)
		sort.Slice(hs, func(i, j int) bool {
			if hs[i].W != hs[j].W {
				return hs[i].W < hs[j].W
			}
			return hs[i].To < hs[j].To
		})
		rank[u] = make(map[int]int, len(hs))
		for i, h := range hs {
			rank[u][h.To] = i
		}
	}
	out := graph.New(n)
	for _, e := range g.EdgesUnordered() {
		u, v := e.U, e.V
		drop := false
		// A witness must be a common neighbor ranked above the partner at
		// both endpoints.
		for w, ru := range rank[u] {
			if w == v {
				continue
			}
			rv, ok := rank[v][w]
			if !ok {
				continue
			}
			if ru < rank[u][v] && rv < rank[v][u] {
				drop = true
				break
			}
		}
		if !drop {
			out.AddEdge(u, v, e.W)
		}
	}
	return out
}

// LMST implements the symmetric local MST: node u computes the MST of the
// subgraph induced by its closed neighborhood N[u] and nominates its tree
// neighbors; edge {u,v} survives iff each endpoint nominates the other.
func LMST(g graph.Topology) *graph.Graph {
	n := g.N()
	nominates := make([]map[int]bool, n)
	for u := 0; u < n; u++ {
		nominates[u] = localMSTNeighbors(g, u)
	}
	out := graph.New(n)
	for _, e := range g.EdgesUnordered() {
		if nominates[e.U][e.V] && nominates[e.V][e.U] {
			out.AddEdge(e.U, e.V, e.W)
		}
	}
	return out
}

// localMSTNeighbors returns the set of MST-neighbors of u in the subgraph
// induced by u's closed neighborhood.
func localMSTNeighbors(g graph.Topology, u int) map[int]bool {
	members := []int{u}
	for _, h := range g.Neighbors(u) {
		members = append(members, h.To)
	}
	idx := make(map[int]int, len(members))
	for i, v := range members {
		idx[v] = i
	}
	local := graph.New(len(members))
	for i, v := range members {
		for _, h := range g.Neighbors(v) {
			if j, ok := idx[h.To]; ok && i < j {
				local.AddEdge(i, j, h.W)
			}
		}
	}
	out := make(map[int]bool)
	for _, e := range local.MST() {
		if e.U == 0 {
			out[members[e.V]] = true
		} else if e.V == 0 {
			out[members[e.U]] = true
		}
	}
	return out
}
