package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/greedy"
	"topoctl/internal/mis"
	"topoctl/internal/ubg"
)

// testSpanner builds a partial spanner to cluster over: a greedy 1.5-spanner
// of a random UBG (a realistic G'_{i-1}).
func testSpanner(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return greedy.Spanner(inst.G, 1.5)
}

func TestGreedyCoverContract(t *testing.T) {
	sp := testSpanner(t, 90, 600)
	for _, radius := range []float64{0.05, 0.2, 0.5, 1.5} {
		cov := GreedyCover(sp, radius, nil)
		if errs := cov.Check(sp); len(errs) > 0 {
			t.Errorf("radius %v: %v", radius, errs)
		}
	}
}

func TestGreedyCoverExtremes(t *testing.T) {
	sp := testSpanner(t, 50, 601)
	// Radius 0: every vertex is its own center.
	cov := GreedyCover(sp, 0, nil)
	if len(cov.Centers()) != sp.N() {
		t.Errorf("radius 0: %d centers, want %d", len(cov.Centers()), sp.N())
	}
	// Huge radius on a connected graph: one center.
	cov = GreedyCover(sp, 1e9, nil)
	if len(cov.Centers()) != 1 {
		t.Errorf("huge radius: %d centers, want 1", len(cov.Centers()))
	}
	if cov.Centers()[0] != 0 {
		t.Errorf("huge radius center = %d, want 0 (smallest ID first)", cov.Centers()[0])
	}
}

func TestGreedyCoverDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	cov := GreedyCover(g, 10, nil)
	if len(cov.Centers()) != 2 {
		t.Errorf("disconnected cover: %d centers, want 2", len(cov.Centers()))
	}
	if errs := cov.Check(g); len(errs) > 0 {
		t.Errorf("violations: %v", errs)
	}
}

// TestCoverFromCentersMatchesPaperRule verifies the distributed attachment:
// centers from an MIS of the radius-proximity graph, members attach to the
// highest-ID center in range.
func TestCoverFromCentersMatchesPaperRule(t *testing.T) {
	sp := testSpanner(t, 80, 602)
	radius := 0.3
	// Build the proximity graph J.
	n := sp.N()
	adj := make([][]int, n)
	search := graph.NewSearcher(n)
	for u := 0; u < n; u++ {
		for _, vd := range search.Ball(sp, u, radius) {
			if vd.V != u {
				adj[u] = append(adj[u], vd.V)
			}
		}
	}
	in := mis.Greedy(adj)
	var centers []int
	for v, ok := range in {
		if ok {
			centers = append(centers, v)
		}
	}
	cov, err := CoverFromCenters(sp, radius, everyVertex(n), centers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs := cov.Check(sp); len(errs) > 0 {
		t.Errorf("violations: %v", errs)
	}
	// Attachment rule: every non-center attaches to the highest-ID center
	// within radius.
	for v := 0; v < n; v++ {
		if cov.IsCenter(v) {
			continue
		}
		bestCenter := -1
		for _, xd := range search.Ball(sp, v, radius) {
			if x := xd.V; in[x] && x > bestCenter {
				bestCenter = x
			}
		}
		if cov.Center[v] != bestCenter {
			t.Fatalf("vertex %d attached to %d, want %d", v, cov.Center[v], bestCenter)
		}
	}
}

// everyVertex lists the vertices 0..n-1: the short-edge list that makes
// CoverFromCenters attach over every vertex.
func everyVertex(n int) []int {
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	return all
}

func TestCoverFromCentersRejectsNonDominating(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	// Vertex 2 isolated; centers {0} cannot cover it.
	if _, err := CoverFromCenters(g, 5, everyVertex(3), []int{0}, nil); err == nil {
		t.Error("non-dominating center set accepted")
	}
}

// TestClusterGraphLemma5InterWeightBound checks the Lemma 5 bound under its
// own precondition: every G'-edge is no longer than W_{i-1} (we build the
// spanner from a radius-0.3 UBG and use w >= 0.3, so no rescue edges arise).
func TestClusterGraphLemma5InterWeightBound(t *testing.T) {
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 100, Dim: 2, Seed: 603},
		ubg.Config{Alpha: 0.3, Model: ubg.ModelNone, Seed: 603},
	)
	if err != nil {
		t.Fatal(err)
	}
	sp := greedy.Spanner(inst.G, 1.5)
	delta := 0.1
	for _, w := range []float64{0.3, 0.4, 0.8} {
		cov := GreedyCover(sp, delta*w, nil)
		cg := BuildClusterGraph(sp, cov, w, (2*delta+1)*w, 0, nil)
		if cg.MaxInterWeight > (2*delta+1)*w+1e-9 {
			t.Errorf("w=%v: inter weight %v exceeds Lemma 5 bound %v", w, cg.MaxInterWeight, (2*delta+1)*w)
		}
	}
}

// TestClusterGraphRescuePass: a crossing G'-edge longer than W_{i-1} (the
// phase-0 clique situation) must still produce an inter-cluster edge, so H
// stays faithful to the paper's unconditional condition (ii).
func TestClusterGraphRescuePass(t *testing.T) {
	// Two tight clumps joined by one long edge of length 0.8 >> w = 0.1.
	g := graph.New(4)
	g.AddEdge(0, 1, 0.01)
	g.AddEdge(2, 3, 0.01)
	g.AddEdge(1, 2, 0.8)
	delta := 0.1
	w := 0.1
	cov := GreedyCover(g, delta*w, nil)
	cg := BuildClusterGraph(g, cov, w, (2*delta+1)*w, 0, nil)
	// Centers of 1 and 2 differ; the crossing edge must yield an H inter-
	// edge despite sp(center(1), center(2)) ≈ 0.8 > crossBound.
	a, b := cov.Center[1], cov.Center[2]
	if a == b {
		t.Fatal("test scene broken: endpoints share a cluster")
	}
	if wgt, ok := cg.H.EdgeWeight(a, b); !ok || wgt < 0.8-0.03 {
		t.Errorf("rescue inter-edge missing or mis-weighted: %v %v", wgt, ok)
	}
	// With a rescueBound below the edge weight the rescue must be skipped.
	cg2 := BuildClusterGraph(g, cov, w, (2*delta+1)*w, 0.5, nil)
	if _, ok := cg2.H.EdgeWeight(a, b); ok {
		t.Error("rescueBound did not cap the rescue search")
	}
}

// TestClusterGraphLemma7Distortion: for query-edge-like pairs (Euclidean
// distance in (W, r·W], the Lemma 7 precondition), the H-path must satisfy
// L1 <= L2 and stay within a constant distortion band. The stated
// (1+6δ)/(1−2δ) factor is checked with a 2×+1 cushion: on discrete sparse
// partial spanners a length-≈W path can need two condition-(i) jumps,
// pushing the ratio toward 2 regardless of δ (the Das–Narasimhan proof
// assumes their complete-Euclidean context); the algorithm's guarantees
// only need O(1), which this asserts.
func TestClusterGraphLemma7Distortion(t *testing.T) {
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 90, Dim: 2, Seed: 604},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: 604},
	)
	if err != nil {
		t.Fatal(err)
	}
	sp := greedy.Spanner(inst.G, 1.5)
	delta := 0.08
	w := 0.35
	cov := GreedyCover(sp, delta*w, nil)
	cg := BuildClusterGraph(sp, cov, w, (2*delta+1)*w, 0, nil)
	factor := (1 + 6*delta) / (1 - 2*delta)
	checked := 0
	search := graph.NewSearcher(sp.N())
	for u := 0; u < sp.N(); u += 3 {
		for _, vd := range search.Ball(sp, u, 3*w) {
			v, l1 := vd.V, vd.D
			if v == u {
				continue
			}
			duv := geom.Dist(inst.Points[u], inst.Points[v])
			if duv <= w || duv > 1.3*w {
				continue
			}
			l2, found := cg.H.DijkstraTarget(u, v, 8*factor*l1)
			if !found {
				t.Fatalf("no H-path for pair (%d,%d) with G'-distance %v", u, v, l1)
			}
			if l2 < l1-1e-9 {
				t.Fatalf("H-path shorter than G'-path: %v < %v", l2, l1)
			}
			if l2 > (2*factor+1)*l1 {
				t.Fatalf("H distortion %v/%v = %v outside the constant band (Lemma 7 factor %v)", l2, l1, l2/l1, factor)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pairs checked")
	}
}

// maxInterDegree returns the maximum number of inter-cluster edges
// incident to any single center of cg (the Lemma 6 quantity).
func maxInterDegree(cg *ClusterGraph) int {
	best := 0
	for _, ctr := range cg.Cover.Centers() {
		deg := 0
		for _, h := range cg.H.Neighbors(ctr) {
			if cg.Cover.IsCenter(h.To) {
				deg++
			}
		}
		best = max(best, deg)
	}
	return best
}

// TestClusterGraphLemma6InterDegreeConstant: inter-cluster degree must not
// grow with n.
func TestClusterGraphLemma6InterDegreeConstant(t *testing.T) {
	delta := 0.1
	w := 0.3
	var degs []int
	for _, n := range []int{60, 120, 240} {
		sp := testSpanner(t, n, 605)
		cov := GreedyCover(sp, delta*w, nil)
		cg := BuildClusterGraph(sp, cov, w, (2*delta+1)*w, 0, nil)
		degs = append(degs, maxInterDegree(cg))
	}
	if degs[2] > 3*degs[0]+6 {
		t.Errorf("inter-cluster degree grows with n: %v", degs)
	}
}

// TestClusterGraphQueryConsistentWithSpanner: a "yes" answer on H implies a
// G'-path within the same bound (Lemma 7 first inequality).
func TestClusterGraphQueryConsistentWithSpanner(t *testing.T) {
	sp := testSpanner(t, 80, 606)
	delta := 0.1
	w := 0.4
	cov := GreedyCover(sp, delta*w, nil)
	cg := BuildClusterGraph(sp, cov, w, (2*delta+1)*w, 0, nil)
	for u := 0; u < sp.N(); u += 5 {
		for v := u + 3; v < sp.N(); v += 11 {
			bound := 1.5 * w
			if _, ok := cg.H.DijkstraTarget(u, v, bound); ok {
				if _, ok2 := sp.DijkstraTarget(u, v, bound); !ok2 {
					t.Fatalf("H said yes within %v but G' has no such path (%d,%d)", bound, u, v)
				}
			}
		}
	}
}

func TestClusterGraphIntraEdgesMatchCoverDistances(t *testing.T) {
	sp := testSpanner(t, 70, 607)
	cov := GreedyCover(sp, 0.25, nil)
	cg := BuildClusterGraph(sp, cov, 0.5, 0.7, 0, nil)
	for _, ctr := range cov.Centers() {
		for _, v := range cov.Members(ctr) {
			if v == ctr {
				continue
			}
			got, ok := cg.H.EdgeWeight(ctr, v)
			if !ok {
				t.Fatalf("missing intra edge %d-%d", ctr, v)
			}
			if math.Abs(got-cov.Dist[v]) > 1e-12 {
				t.Fatalf("intra weight %v != cover distance %v", got, cov.Dist[v])
			}
		}
	}
}

func TestCentersBySize(t *testing.T) {
	sp := testSpanner(t, 90, 604)
	cov := GreedyCover(sp, 0.3, nil)
	before := slices.Clone(cov.Center)
	order := cov.CentersBySize()
	if len(order) != len(cov.Centers()) {
		t.Fatalf("CentersBySize returned %d centers, cover has %d", len(order), len(cov.Centers()))
	}
	seen := make(map[int]bool)
	for i, c := range order {
		if seen[c] {
			t.Fatalf("center %d repeated", c)
		}
		seen[c] = true
		if !cov.IsCenter(c) || len(cov.Members(c)) == 0 {
			t.Fatalf("ordered vertex %d is not a center", c)
		}
		if i > 0 {
			prev := order[i-1]
			sp1, s := len(cov.Members(prev)), len(cov.Members(c))
			if sp1 < s || (sp1 == s && prev > c) {
				t.Fatalf("order violated at %d: center %d (size %d) before %d (size %d)", i, prev, sp1, c, s)
			}
		}
	}
	// The cover itself must stay untouched.
	if !slices.Equal(cov.Center, before) {
		t.Fatal("CentersBySize disturbed the cover's assignment")
	}
}

// checkCSR verifies the membership CSR against Center: the Members groups
// partition [0, n) with v in group Center[v], each group is sorted, Centers
// is ascending and exactly the vertices with a non-empty group,
// Clustered lists those with a second member, and InCluster holds exactly
// for the vertices of their groups.
func checkCSR(t *testing.T, name string, cov *Cover) {
	t.Helper()
	n := len(cov.Center)
	claimed := make([]bool, n)
	for v := 0; v < n; v++ {
		mem := cov.Members(v)
		if !cov.IsCenter(v) {
			if len(mem) != 0 {
				t.Fatalf("%s: non-center %d has members %v", name, v, mem)
			}
			continue
		}
		for i, x := range mem {
			if i > 0 && mem[i-1] >= x {
				t.Fatalf("%s: members of %d not sorted: %v", name, v, mem)
			}
			if claimed[x] {
				t.Fatalf("%s: vertex %d in two groups", name, x)
			}
			claimed[x] = true
			if cov.Center[x] != v {
				t.Fatalf("%s: vertex %d listed under %d but Center says %d", name, x, v, cov.Center[x])
			}
		}
	}
	for v, ok := range claimed {
		if !ok {
			t.Fatalf("%s: vertex %d in no group", name, v)
		}
		if want := len(cov.Members(cov.Center[v])) > 1; cov.InCluster(v) != want {
			t.Fatalf("%s: InCluster(%d) = %v, want %v", name, v, !want, want)
		}
	}
	var centers, clustered []int
	for v := 0; v < n; v++ {
		if cov.IsCenter(v) {
			centers = append(centers, v)
			if len(cov.Members(v)) > 1 {
				clustered = append(clustered, v)
			}
		}
	}
	if fmt.Sprint(cov.Centers()) != fmt.Sprint(centers) {
		t.Fatalf("%s: Centers %v, want the ascending center set %v", name, cov.Centers(), centers)
	}
	if fmt.Sprint(cov.Clustered) != fmt.Sprint(clustered) {
		t.Fatalf("%s: Clustered %v, want the ascending centers with a second member %v", name, cov.Clustered, clustered)
	}
}

// TestCoverMembersCSR checks the membership contract of both
// constructions, including a hand-built center set in which center 1 lies
// inside center 0's ball and the higher-ID center 2 claims both their
// neighbourhoods, so the "centers own themselves" rule has to run. Every
// cover after the first is built into the previous one's storage, across
// radii, constructions and vertex counts, and must equal a fresh build.
func TestCoverMembersCSR(t *testing.T) {
	sp := testSpanner(t, 90, 608)
	var reuse Cover
	for _, radius := range []float64{0, 0.05, 0.2, 0.5, 1e9, 0.05} {
		name := fmt.Sprintf("greedy/r=%v", radius)
		cov := GreedyCover(sp, radius, &reuse)
		checkCSR(t, name, cov)
		checkSameCover(t, name, cov, GreedyCover(sp, radius, nil))
	}
	all := everyVertex(sp.N())
	cov, err := CoverFromCenters(sp, 0.3, all, all, &reuse)
	if err != nil {
		t.Fatal(err)
	}
	checkCSR(t, "from-centers/all", cov)

	// Path 0-1-2-3-4 with unit edges, radius 2: center 2 reaches every
	// vertex and outbids 0 and 1 for all of them, so 0 and 1 keep only
	// themselves.
	g := graph.New(5)
	for v := 0; v < 4; v++ {
		g.AddEdge(v, v+1, 1)
	}
	cov, err = CoverFromCenters(g, 2, everyVertex(5), []int{0, 1, 2}, &reuse)
	if err != nil {
		t.Fatal(err)
	}
	checkCSR(t, "from-centers/overlapping", cov)
	if want := "[0 1 2]"; fmt.Sprint(cov.Centers()) != want {
		t.Fatalf("Centers %v, want %s", cov.Centers(), want)
	}
	for ctr, want := range map[int]string{0: "[0]", 1: "[1]", 2: "[2 3 4]", 3: "[]", 4: "[]"} {
		if got := fmt.Sprint(cov.Members(ctr)); got != want {
			t.Errorf("Members(%d) = %s, want %s", ctr, got, want)
		}
	}
}

// checkSameCover fails unless got and want are the same cover: radius,
// assignment, distances, centers and membership.
func checkSameCover(t *testing.T, name string, got, want *Cover) {
	t.Helper()
	if got.Radius != want.Radius || !slices.Equal(got.Center, want.Center) ||
		!slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Centers(), want.Centers()) {
		t.Fatalf("%s: reused cover differs from a fresh one", name)
	}
	for _, c := range want.Centers() {
		if !slices.Equal(got.Members(c), want.Members(c)) {
			t.Fatalf("%s: members of %d are %v, fresh cover has %v", name, c, got.Members(c), want.Members(c))
		}
	}
}

// Check verifies the cover contract against g and returns a list of
// violations (empty means the cover is valid): every vertex covered, all
// member distances within radius and consistent with shortest paths, and
// centers pairwise more than radius apart.
func (c *Cover) Check(g graph.Topology) []string {
	var out []string
	const eps = 1e-9
	for v, ctr := range c.Center {
		if ctr == -1 {
			out = append(out, fmt.Sprintf("vertex %d uncovered", v))
			continue
		}
		if c.Dist[v] > c.Radius+eps {
			out = append(out, fmt.Sprintf("vertex %d at distance %v > radius %v", v, c.Dist[v], c.Radius))
		}
	}
	n := g.N()
	s := graph.AcquireSearcher(n)
	defer graph.ReleaseSearcher(s)
	// ballD[v] is v's distance from the current center ctr when
	// inBall[v] == ctr+1.
	ballD, inBall := make([]float64, n), make([]int, n)
	centers := c.Centers()
	for _, ctr := range centers {
		for _, vd := range s.Ball(g, ctr, c.Radius) {
			ballD[vd.V], inBall[vd.V] = vd.D, ctr+1
		}
		for _, other := range centers {
			if other == ctr {
				continue
			}
			if d := ballD[other]; inBall[other] == ctr+1 && d <= c.Radius+eps {
				out = append(out, fmt.Sprintf("centers %d and %d within radius (%v)", ctr, other, d))
			}
		}
		// Member distances must match shortest paths.
		for _, v := range c.Members(ctr) {
			if inBall[v] != ctr+1 {
				out = append(out, fmt.Sprintf("member %d unreachable from center %d within radius", v, ctr))
				continue
			}
			d := ballD[v]
			if diff := c.Dist[v] - d; diff > eps || diff < -eps {
				out = append(out, fmt.Sprintf("member %d distance %v != shortest path %v", v, c.Dist[v], d))
			}
		}
	}
	return out
}

// TestAllSingletonClusterGraphMatchesSpanner pins what lets a builder skip
// H in a phase whose cover is all singletons. Every H edge then weighs a G'
// distance, so H-distances are at least G'-distances; every G' edge whose
// G' distance is within the rescue bound t·W_i is an H edge at that
// distance, so within that bound they are also at most G'-distances. Balls
// of radius t·W_i must therefore hold the same vertices on H and on G',
// at distances equal up to float reassociation.
func TestAllSingletonClusterGraphMatchesSpanner(t *testing.T) {
	// The ε = 0.5 constants: t, δ and the bin ratio r (W_i = r·W_{i-1}).
	const tStretch, delta, r = 1.5, 0.0147, 1.0287
	sh, sg := graph.NewSearcher(0), graph.NewSearcher(0)
	compared := 0
	for _, tc := range []struct {
		n    int
		seed int64
	}{{60, 620}, {120, 621}, {200, 622}} {
		sp := testSpanner(t, tc.n, tc.seed)
		cov := GreedyCover(sp, 0, nil)
		if len(cov.Centers()) != sp.N() {
			t.Fatalf("n=%d: radius-0 cover has %d centers", tc.n, len(cov.Centers()))
		}
		for _, w := range []float64{0.02, 0.05, 0.1, 0.2, 0.4} {
			bound := tStretch * r * w
			cg := BuildClusterGraph(sp, cov, w, (2*delta+1)*w, bound, nil)
			for u := 0; u < sp.N(); u++ {
				want := map[int]float64{}
				for _, vd := range sg.Ball(sp, u, bound) {
					want[vd.V] = vd.D
				}
				got := sh.Ball(cg.H, u, bound)
				if len(got) != len(want) {
					t.Fatalf("n=%d w=%v: ball of %d holds %d vertices in H, %d in G'", tc.n, w, u, len(got), len(want))
				}
				for _, vd := range got {
					d, ok := want[vd.V]
					if !ok {
						t.Fatalf("n=%d w=%v: %d is in %d's H ball but not its G' ball", tc.n, w, vd.V, u)
					}
					if math.Abs(vd.D-d) > 1e-12*d {
						t.Fatalf("n=%d w=%v: H distance %d→%d is %v, G' distance %v", tc.n, w, u, vd.V, vd.D, d)
					}
				}
				compared += len(got) - 1
			}
		}
	}
	if compared == 0 {
		t.Fatal("no ball reached a second vertex")
	}
}
