package fault

// Exact connectivity oracles (unit-capacity max flow) and the structural
// check they were written for: a k-fault-tolerant spanner keeps every cut
// of size at most k that the base graph survives, so its edge (vertex)
// connectivity is at least min(λ(G), k+1) (min(κ(G), k+1)). CheckFaults
// samples fault sets; this checks all of them at once.

import (
	"math/rand"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/ubg"
)

// EdgeConnectivity returns the edge connectivity of g: the minimum number
// of edges whose removal disconnects it (0 for disconnected or trivial
// graphs). Computed as min over vertices v != 0 of maxflow(0, v) with unit
// capacities — correct because a global min cut separates vertex 0 from
// someone. Intended for verification of fault-tolerant constructions
// (TestFaultSpannerConnectivityStructure), so it favours clarity over
// speed.
func EdgeConnectivity(g *graph.Graph) int {
	n := g.N()
	if n <= 1 || !g.Connected() {
		return 0
	}
	best := -1
	for v := 1; v < n; v++ {
		f := maxFlowUnit(g, 0, v)
		if best == -1 || f < best {
			best = f
		}
		if best == 0 {
			break
		}
	}
	return best
}

// PairEdgeConnectivity returns the maximum number of pairwise edge-disjoint
// paths between u and v (unit-capacity max flow).
func PairEdgeConnectivity(g *graph.Graph, u, v int) int {
	if u == v {
		return 0
	}
	return maxFlowUnit(g, u, v)
}

// maxFlowUnit computes s-t max flow with unit capacity per undirected edge
// (each undirected edge becomes two directed arcs sharing capacity via the
// standard residual construction), using Edmonds–Karp.
func maxFlowUnit(g *graph.Graph, s, t int) int {
	n := g.N()
	// Residual capacities: cap[u][v]. Undirected unit edge u~v becomes
	// cap 1 in both directions (standard for undirected flow).
	cap_ := make([]map[int]int, n)
	for u := 0; u < n; u++ {
		cap_[u] = make(map[int]int)
	}
	for u := 0; u < n; u++ {
		for _, h := range g.Neighbors(u) {
			cap_[u][h.To] = 1
		}
	}
	flow := 0
	for {
		// BFS for an augmenting path.
		prev := make([]int, n)
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = s
		queue := []int{s}
		for len(queue) > 0 && prev[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for v, c := range cap_[u] {
				if c > 0 && prev[v] == -1 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		if prev[t] == -1 {
			return flow
		}
		// Unit capacities: augment by exactly 1.
		for v := t; v != s; v = prev[v] {
			u := prev[v]
			cap_[u][v]--
			cap_[v][u]++
		}
		flow++
	}
}

// VertexConnectivity returns the vertex connectivity between a specific
// pair (maximum number of internally vertex-disjoint uv-paths), via the
// standard vertex-splitting reduction to edge connectivity. For adjacent
// vertices the direct edge contributes one path.
func VertexConnectivity(g *graph.Graph, u, v int) int {
	if u == v {
		return 0
	}
	n := g.N()
	// Split every vertex x (except u, v) into x_in = x, x_out = x + n with
	// a unit arc in->out; edges use out->in arcs.
	cap_ := make([]map[int]int, 2*n)
	for i := range cap_ {
		cap_[i] = make(map[int]int)
	}
	in := func(x int) int { return x }
	out := func(x int) int {
		if x == u || x == v {
			return x // endpoints are not split
		}
		return x + n
	}
	for x := 0; x < n; x++ {
		if x != u && x != v {
			cap_[in(x)][out(x)] = 1
		}
	}
	// Unit edge arcs suffice: vertex-disjoint paths never share an edge.
	for x := 0; x < n; x++ {
		for _, h := range g.Neighbors(x) {
			cap_[out(x)][in(h.To)] = 1
		}
	}
	// Edmonds–Karp on the split graph from out(u)... u unsplit: source is u.
	s, t := u, v
	flow := 0
	for {
		prev := make([]int, 2*n)
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = s
		queue := []int{s}
		for len(queue) > 0 && prev[t] == -1 {
			x := queue[0]
			queue = queue[1:]
			for y, c := range cap_[x] {
				if c > 0 && prev[y] == -1 {
					prev[y] = x
					queue = append(queue, y)
				}
			}
		}
		if prev[t] == -1 {
			return flow
		}
		for y := t; y != s; y = prev[y] {
			x := prev[y]
			cap_[x][y]--
			cap_[y][x]++
		}
		flow++
	}
}

// GlobalVertexConnectivity returns κ(g), the fewest vertices whose removal
// disconnects g (n−1 for a complete graph, 0 for a disconnected one): the
// minimum over vertex pairs of the number of internally disjoint paths.
func GlobalVertexConnectivity(g *graph.Graph) int {
	n := g.N()
	if n <= 1 || !g.Connected() {
		return 0
	}
	best := n - 1
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if c := VertexConnectivity(g, u, v); c < best {
				best = c
			}
		}
	}
	return best
}

func cycleGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
	}
	return g
}

func completeGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	return g
}

func TestEdgeConnectivityKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path", graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}), 1},
		{"cycle-5", cycleGraph(5), 2},
		{"complete-5", completeGraph(5), 4},
		{"disconnected", graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}}), 0},
		{"single vertex", graph.New(1), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := EdgeConnectivity(tc.g); got != tc.want {
				t.Errorf("EdgeConnectivity = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestPairEdgeConnectivityThetaGraph(t *testing.T) {
	// Three parallel 2-hop paths 0→1: connectivity 3.
	g := graph.New(5)
	for i := 2; i <= 4; i++ {
		g.AddEdge(0, i, 1)
		g.AddEdge(i, 1, 1)
	}
	if got := PairEdgeConnectivity(g, 0, 1); got != 3 {
		t.Errorf("pair connectivity = %d, want 3", got)
	}
	if got := PairEdgeConnectivity(g, 0, 0); got != 0 {
		t.Errorf("self connectivity = %d, want 0", got)
	}
}

func TestVertexConnectivityKnownGraphs(t *testing.T) {
	// Two internally disjoint paths plus a direct edge: vertex conn 3.
	g := graph.New(4)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 1, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(3, 1, 1)
	g.AddEdge(0, 1, 1)
	if got := VertexConnectivity(g, 0, 1); got != 3 {
		t.Errorf("vertex connectivity = %d, want 3", got)
	}
	// A single cut vertex: conn 1.
	h := graph.New(3)
	h.AddEdge(0, 2, 1)
	h.AddEdge(2, 1, 1)
	if got := VertexConnectivity(h, 0, 1); got != 1 {
		t.Errorf("vertex connectivity through cut vertex = %d, want 1", got)
	}
}

// TestVertexLeqEdgeConnectivityProperty: Whitney's inequality
// κ(u,v) <= λ(u,v) on random graphs.
func TestVertexLeqEdgeConnectivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(86_000))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(10)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					g.AddEdge(u, v, 1)
				}
			}
		}
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		kv := VertexConnectivity(g, u, v)
		ke := PairEdgeConnectivity(g, u, v)
		if kv > ke {
			t.Fatalf("trial %d: vertex connectivity %d > edge connectivity %d", trial, kv, ke)
		}
		deg := g.Degree(u)
		if dv := g.Degree(v); dv < deg {
			deg = dv
		}
		if ke > deg {
			t.Fatalf("trial %d: edge connectivity %d > min degree %d", trial, ke, deg)
		}
	}
}

// TestFaultSpannerConnectivityStructure checks the fault-tolerance
// guarantee exactly, for every fault set at once: if a k-edge-fault
// tolerant spanner H of G had an edge cut S with |S| ≤ k that G survives,
// H−S would not span G−S, so λ(H) ≥ min(λ(G), k+1); likewise
// κ(H) ≥ min(κ(G), k+1) for vertex faults.
func TestFaultSpannerConnectivityStructure(t *testing.T) {
	for _, tc := range []struct {
		n    int
		deg  float64 // expected degree
		seed int64
	}{{30, 12, 88_000}, {40, 12, 88_001}, {40, 16, 88_002}} {
		inst, err := ubg.GenerateConnected(
			geom.CloudConfig{Kind: geom.CloudUniform, N: tc.n, Dim: 2, Side: ubg.DensitySide(tc.n, 2, 1, tc.deg), Seed: tc.seed},
			ubg.Config{Alpha: 0.9, Model: ubg.ModelAll, Seed: tc.seed},
		)
		if err != nil {
			t.Fatal(err)
		}
		g := inst.G
		lambda, kappa := EdgeConnectivity(g), GlobalVertexConnectivity(g)
		for _, k := range []int{1, 2} {
			for _, mode := range []Mode{EdgeFaults, VertexFaults} {
				h, err := Spanner(g, 1.5, k, mode)
				if err != nil {
					t.Fatal(err)
				}
				base, got := lambda, EdgeConnectivity(h)
				if mode == VertexFaults {
					base, got = kappa, GlobalVertexConnectivity(h)
				}
				want := min(base, k+1)
				t.Logf("n=%d seed=%d k=%d %v: G %d, H %d (%d of %d edges)", tc.n, tc.seed, k, mode, base, got, h.M(), g.M())
				if got < want {
					t.Errorf("n=%d seed=%d k=%d %v faults: spanner connectivity %d < min(%d, k+1) = %d",
						tc.n, tc.seed, k, mode, got, base, want)
				}
			}
		}
	}
}
