package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/ubg"
)

// refBuildClusterGraph is the map-based construction the slice-stamped
// BuildClusterGraph replaced, kept verbatim (bar the Members accessor) as
// the differential reference: the same H edges with bit-equal weights, the
// same InterEdges and MaxInterWeight. Its rescue pass walks a map, so the
// order of its rescue edges in H's rows varies from run to run.
func refBuildClusterGraph(gp graph.Topology, cov *Cover, w, crossBound, rescueBound float64) *ClusterGraph {
	n := gp.N()
	cg := &ClusterGraph{H: graph.New(n), Cover: cov, W: w}

	// Intra-cluster edges: center -> member with the cover's recorded
	// shortest-path distance.
	for _, ctr := range cov.Centers() {
		for _, v := range cov.Members(ctr) {
			if v != ctr {
				cg.H.AddEdge(ctr, v, cov.Dist[v])
			}
		}
	}

	// Candidate inter-cluster pairs from condition (ii): a G'-edge with
	// endpoints in different clusters; remember the lightest crossing
	// weight for the rescue bound.
	crossing := make(map[[2]int]float64)
	for u := 0; u < n; u++ {
		cu := cov.Center[u]
		for _, h := range gp.Neighbors(u) {
			if u >= h.To {
				continue
			}
			cv := cov.Center[h.To]
			if cu == cv {
				continue
			}
			a, b := cu, cv
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if cur, ok := crossing[key]; !ok || h.W < cur {
				crossing[key] = h.W
			}
		}
	}

	// One bounded Dijkstra per center discovers condition (i) pairs
	// (centers within distance w) and the in-range condition (ii) pairs.
	isCenter := make([]bool, n)
	for _, ctr := range cov.Centers() {
		isCenter[ctr] = true
	}
	type interEdge struct {
		a, b int
		w    float64
	}
	var inters []interEdge
	seen := make(map[[2]int]bool)
	s := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(s)
	for _, a := range cov.Centers() {
		for _, vd := range s.Ball(gp, a, crossBound) {
			if vd.V == a || !isCenter[vd.V] {
				continue
			}
			lo, hi := a, vd.V
			if lo > hi {
				lo, hi = hi, lo
			}
			key := [2]int{lo, hi}
			if seen[key] {
				continue
			}
			_, isCrossing := crossing[key]
			if vd.D <= w || isCrossing {
				seen[key] = true
				inters = append(inters, interEdge{a: lo, b: hi, w: vd.D})
			}
		}
	}
	// Rescue pass: crossing pairs whose center distance exceeds crossBound
	// (possible only via long phase-0 edges).
	for key, minCross := range crossing {
		if seen[key] {
			continue
		}
		bound := (crossBound - w) + minCross
		if rescueBound > 0 && bound > rescueBound {
			bound = rescueBound
		}
		if d, ok := s.DijkstraTarget(gp, key[0], key[1], bound); ok {
			inters = append(inters, interEdge{a: key[0], b: key[1], w: d})
		}
	}
	for _, e := range inters {
		cg.H.AddEdge(e.a, e.b, e.w)
		cg.InterEdges++
		if e.w > cg.MaxInterWeight {
			cg.MaxInterWeight = e.w
		}
	}
	return cg
}

// checkAgainstRef builds H both ways and requires the same edges with
// bit-equal weights and the same counters.
func checkAgainstRef(t *testing.T, gp *graph.Graph, cov *Cover, w, crossBound, rescueBound float64, reuse *ClusterGraph) {
	t.Helper()
	got := BuildClusterGraph(gp, cov, w, crossBound, rescueBound, reuse)
	want := refBuildClusterGraph(gp, cov, w, crossBound, rescueBound)
	ge, we := graph.SortedEdges(got.H), graph.SortedEdges(want.H)
	if len(ge) != len(we) {
		t.Fatalf("w=%v: H has %d edges, reference %d", w, len(ge), len(we))
	}
	for i := range ge {
		if ge[i].U != we[i].U || ge[i].V != we[i].V || math.Float64bits(ge[i].W) != math.Float64bits(we[i].W) {
			t.Fatalf("w=%v: H edge %d is %+v, reference %+v", w, i, ge[i], we[i])
		}
	}
	if got.InterEdges != want.InterEdges {
		t.Errorf("w=%v: InterEdges %d, reference %d", w, got.InterEdges, want.InterEdges)
	}
	if math.Float64bits(got.MaxInterWeight) != math.Float64bits(want.MaxInterWeight) {
		t.Errorf("w=%v: MaxInterWeight %v, reference %v", w, got.MaxInterWeight, want.MaxInterWeight)
	}
}

// rescueFixture is TestClusterGraphRescuePass's scene widened to a chain of
// tight clumps joined by long edges: at w = 0.1 every clump is one cluster
// and every joining edge crosses two clusters whose centers lie beyond
// crossBound, so each one becomes a rescue edge.
func rescueFixture(clumps int) *graph.Graph {
	g := graph.New(2 * clumps)
	for c := 0; c < clumps; c++ {
		g.AddEdge(2*c, 2*c+1, 0.01)
		if c > 0 {
			g.AddEdge(2*c-1, 2*c, 0.8+0.01*float64(c))
		}
	}
	// A chord across the chain, so the rescue pairs are not all adjacent.
	g.AddEdge(0, 2*clumps-1, 0.9)
	return g
}

// TestClusterGraphMatchesReference checks BuildClusterGraph against the
// reference on random greedy spanners over several phase radii — small w
// makes the spanner's long edges cross far-apart clusters, so the rescue
// pass runs — and on the rescue fixtures, with and without a rescue cap.
// Every build reuses one cover and one cluster graph, across vertex counts,
// as a builder's phases do.
func TestClusterGraphMatchesReference(t *testing.T) {
	const delta = 0.1
	rescued := 0
	var covReuse Cover
	var reuse ClusterGraph
	for _, tc := range []struct {
		n    int
		seed int64
	}{{60, 610}, {120, 611}, {200, 612}} {
		inst, err := ubg.GenerateConnected(
			geom.CloudConfig{Kind: geom.CloudUniform, N: tc.n, Dim: 2, Seed: tc.seed},
			ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: tc.seed},
		)
		if err != nil {
			t.Fatal(err)
		}
		sp := greedy.Spanner(inst.G, 1.5)
		for _, w := range []float64{0.02, 0.05, 0.1, 0.2, 0.4, 0.8} {
			t.Run(fmt.Sprintf("n=%d/w=%v", tc.n, w), func(t *testing.T) {
				cov := GreedyCover(sp, delta*w, &covReuse)
				crossBound := (2*delta + 1) * w
				for _, rescueBound := range []float64{0, 1.5 * w, 4 * w} {
					checkAgainstRef(t, sp, cov, w, crossBound, rescueBound, &reuse)
				}
				// A rescue bound below every distance disables the rescue
				// pass; the difference counts the rescue edges.
				rescued += BuildClusterGraph(sp, cov, w, crossBound, 0, nil).InterEdges -
					BuildClusterGraph(sp, cov, w, crossBound, 1e-12, nil).InterEdges
			})
		}
	}
	if rescued == 0 {
		t.Error("no random case exercised the rescue pass")
	}
	for _, clumps := range []int{2, 5} {
		g := rescueFixture(clumps)
		cov := GreedyCover(g, delta*0.1, &covReuse)
		for _, rescueBound := range []float64{0, 0.5, 0.85} {
			checkAgainstRef(t, g, cov, 0.1, (2*delta+1)*0.1, rescueBound, &reuse)
		}
	}
}

// TestClusterGraphDedupeTurns pins the dedupe rule on a path whose
// distance is not symmetric in floating point: from 0, (0.1+0.2)+0.3 =
// 0.6000000000000001 > w; from 3, (0.3+0.2)+0.1 = 0.6 <= w. Radius 0 makes
// every vertex a center, so {0, 3} is a condition (i) pair that 0's turn
// turns down and 3's turn accepts, with 3's distance as its weight. The
// mirrored path is accepted on 0's turn and offered no second time.
func TestClusterGraphDedupeTurns(t *testing.T) {
	for _, tc := range []struct {
		ws   [3]float64
		want float64
	}{
		{[3]float64{0.1, 0.2, 0.3}, 0.6},
		{[3]float64{0.3, 0.2, 0.1}, 0.6},
	} {
		g := graph.New(4)
		for i, w := range tc.ws {
			g.AddEdge(i, i+1, w)
		}
		cov := GreedyCover(g, 0, nil)
		cg := BuildClusterGraph(g, cov, 0.6, 1, 0, nil)
		if got, ok := cg.H.EdgeWeight(0, 3); !ok || got != tc.want {
			t.Errorf("path %v: H edge {0,3} = %v (present %v), want weight %v", tc.ws, got, ok, tc.want)
		}
		checkAgainstRef(t, g, cov, 0.6, 1, 0, nil)
	}
}

// TestClusterGraphRowsDeterministic: H's rows, rescue edges included, come
// out in the same order on every build. The reference's rescue pass walks a
// map, so its row order is not reproducible.
func TestClusterGraphRowsDeterministic(t *testing.T) {
	g := rescueFixture(5)
	cov := GreedyCover(g, 0.01, nil)
	first := BuildClusterGraph(g, cov, 0.1, 0.12, 0, nil)
	if first.InterEdges < 2 {
		t.Fatalf("fixture yields %d inter-cluster edges (all rescued), want >= 2", first.InterEdges)
	}
	for rep := 0; rep < 10; rep++ {
		again := BuildClusterGraph(g, cov, 0.1, 0.12, 0, nil)
		for v := 0; v < g.N(); v++ {
			if !slices.Equal(first.H.Neighbors(v), again.H.Neighbors(v)) {
				t.Fatalf("build %d: row %d is %v, first build %v", rep, v, again.H.Neighbors(v), first.H.Neighbors(v))
			}
		}
	}
}

// TestRowAloneMatchesReference builds single rows on demand: for every
// center c, a fresh Start and Row(c) alone must give c the row the
// reference construction gives it, with bit-equal weights, although the
// rows of c's partners are not built. It runs on the random spanners and
// rescue fixtures of TestClusterGraphMatchesReference and on the
// asymmetric-distance paths of TestClusterGraphDedupeTurns.
func TestRowAloneMatchesReference(t *testing.T) {
	const delta = 0.1
	check := func(name string, gp *graph.Graph, cov *Cover, w, crossBound, rescueBound float64) {
		t.Helper()
		want := refBuildClusterGraph(gp, cov, w, crossBound, rescueBound)
		var cg ClusterGraph
		for _, c := range cov.Centers() {
			cg.Start(gp, cov, w, crossBound, rescueBound)
			cg.Row(c)
			got, ref := slices.Clone(cg.H.Neighbors(c)), slices.Clone(want.H.Neighbors(c))
			byTo := func(a, b graph.Halfedge) int { return a.To - b.To }
			slices.SortFunc(got, byTo)
			slices.SortFunc(ref, byTo)
			if !slices.EqualFunc(got, ref, func(a, b graph.Halfedge) bool {
				return a.To == b.To && math.Float64bits(a.W) == math.Float64bits(b.W)
			}) {
				t.Fatalf("%s: center %d's row alone is %v, reference %v", name, c, got, ref)
			}
		}
	}
	for _, tc := range []struct {
		n    int
		seed int64
	}{{60, 610}, {120, 611}} {
		inst, err := ubg.GenerateConnected(
			geom.CloudConfig{Kind: geom.CloudUniform, N: tc.n, Dim: 2, Seed: tc.seed},
			ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: tc.seed},
		)
		if err != nil {
			t.Fatal(err)
		}
		sp := greedy.Spanner(inst.G, 1.5)
		for _, w := range []float64{0.02, 0.1, 0.4} {
			cov := GreedyCover(sp, delta*w, nil)
			check(fmt.Sprintf("n=%d/w=%v", tc.n, w), sp, cov, w, (2*delta+1)*w, 1.5*w)
		}
	}
	for _, clumps := range []int{2, 5} {
		g := rescueFixture(clumps)
		check(fmt.Sprintf("rescue/clumps=%d", clumps), g, GreedyCover(g, delta*0.1, nil), 0.1, (2*delta+1)*0.1, 0)
	}
	for _, ws := range [][3]float64{{0.1, 0.2, 0.3}, {0.3, 0.2, 0.1}} {
		g := graph.New(4)
		for i, w := range ws {
			g.AddEdge(i, i+1, w)
		}
		// At w = 0.6 one turn offers {0, 3}; at w = 0.7 both do, and the
		// weight must be 0's distance even when 3's row is built alone.
		for _, w := range []float64{0.6, 0.7} {
			check(fmt.Sprintf("path %v/w=%v", ws, w), g, GreedyCover(g, 0, nil), w, 1, 0)
		}
	}
}
