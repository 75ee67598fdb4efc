package greedy

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/graph/graphtest"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

func testInstance(t *testing.T, n int, seed int64) ([]geom.Point, *graph.Graph) {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Points, inst.G
}

// TestSpannerStretchGuarantee: SEQ-GREEDY output must be an exact t-spanner
// across several stretch values and instances.
func TestSpannerStretchGuarantee(t *testing.T) {
	for _, tval := range []float64{1.1, 1.5, 2.0, 3.0} {
		for seed := int64(0); seed < 3; seed++ {
			_, g := testInstance(t, 70, 100+seed)
			sp := Spanner(g, tval)
			if s := metrics.Stretch(g, sp); s > tval+1e-9 {
				t.Errorf("t=%v seed=%d: stretch %v", tval, seed, s)
			}
		}
	}
}

// TestSpannerSparsification: larger t must never produce more edges, and
// any t produces at most the input edges and at least n-1 (connected input).
func TestSpannerSparsification(t *testing.T) {
	_, g := testInstance(t, 80, 200)
	prev := math.MaxInt
	for _, tval := range []float64{1.05, 1.2, 1.5, 2, 4} {
		sp := Spanner(g, tval)
		if sp.M() > prev {
			t.Errorf("t=%v: %d edges, more than smaller t (%d)", tval, sp.M(), prev)
		}
		prev = sp.M()
		if sp.M() < g.N()-1 {
			t.Errorf("t=%v: spanner disconnected? %d edges", tval, sp.M())
		}
		if !sp.Connected() {
			t.Errorf("t=%v: spanner disconnected", tval)
		}
	}
}

// TestSpannerContainsMST: the greedy spanner always contains a minimum
// spanning tree (the classical fact: an edge whose endpoints have no
// t-path is in particular the current lightest cut edge).
func TestSpannerContainsMST(t *testing.T) {
	_, g := testInstance(t, 60, 300)
	sp := Spanner(g, 1.5)
	mstW := g.MSTWeight()
	spMstW := sp.MSTWeight()
	if math.Abs(mstW-spMstW) > 1e-9 {
		t.Errorf("MST weight through spanner %v != graph MST %v", spMstW, mstW)
	}
}

func TestSpannerIsSubgraph(t *testing.T) {
	_, g := testInstance(t, 50, 400)
	sp := Spanner(g, 1.3)
	if !graphtest.IsSubgraphOf(sp, g) {
		t.Error("spanner contains non-input edges")
	}
}

// TestSpannerDegreeBounded: on a clique (complete Euclidean graph) greedy
// yields constant degree; check it stays modest as n grows.
func TestSpannerDegreeBoundedOnClique(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{20, 40, 80} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{rng.Float64(), rng.Float64()}
		}
		g := graph.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				g.AddEdge(i, j, geom.Dist(pts[i], pts[j]))
			}
		}
		sp := Spanner(g, 1.5)
		if d := sp.MaxDegree(); d > 14 {
			t.Errorf("n=%d: clique greedy degree %d suspiciously high", n, d)
		}
	}
}

func TestRunSkipsExistingEdges(t *testing.T) {
	sp := graph.New(3)
	sp.AddEdge(0, 1, 1)
	if added := Run(sp, []graph.Edge{{U: 0, V: 1, W: 1}}, 2); added != 0 {
		t.Errorf("re-added existing edge: %d added", added)
	}
}

func TestRunRespectsExistingPaths(t *testing.T) {
	sp := graph.New(3)
	sp.AddEdge(0, 1, 1)
	sp.AddEdge(1, 2, 1)
	// 0-2 weight 2: path 0-1-2 has length 2 <= t*2 for t >= 1.
	added := Run(sp, []graph.Edge{{U: 0, V: 2, W: 2}}, 1.0001)
	if added != 0 {
		t.Error("edge added despite existing t-path")
	}
	// But with weight 1.5 the path (2) exceeds t*1.5 for t = 1.2.
	added = Run(sp, []graph.Edge{{U: 0, V: 2, W: 1.5}}, 1.2)
	if added != 1 || !sp.HasEdge(0, 2) {
		t.Error("edge not added although no t-path exists")
	}
}

func TestSortEdgesDeterministic(t *testing.T) {
	edges := []graph.Edge{
		{U: 2, V: 3, W: 1}, {U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 0.5},
	}
	graph.SortEdgesCanonical(edges)
	if edges[0].W != 0.5 || edges[1].U != 0 || edges[2].U != 2 {
		t.Errorf("sort order wrong: %v", edges)
	}
}

func TestCliqueEdgesComplete(t *testing.T) {
	members := []int{3, 1, 5}
	edges := CliqueEdges(members, func(u, v int) float64 { return float64(u + v) })
	if len(edges) != 3 {
		t.Fatalf("clique edge count = %d, want 3", len(edges))
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("non-canonical edge %+v", e)
		}
	}
	// Sorted by weight: 1+3=4, 1+5=6, 3+5=8.
	if edges[0].W != 4 || edges[1].W != 6 || edges[2].W != 8 {
		t.Errorf("weights wrong: %v", edges)
	}
}

// TestSpannerWeightNearMST: greedy spanner weight should be a small multiple
// of the MST weight (Das–Narasimhan; here just an empirical band).
func TestSpannerWeightNearMST(t *testing.T) {
	_, g := testInstance(t, 100, 500)
	sp := Spanner(g, 1.5)
	ratio := sp.TotalWeight() / g.MSTWeight()
	if ratio > 8 {
		t.Errorf("weight ratio %v implausibly high for t=1.5", ratio)
	}
}

// TestAcceptMatchesRun pins the extracted acceptance rule against Run: an
// edge is accepted exactly when Run would have added it at that point, so
// both loops build the same rows in the same order.
func TestAcceptMatchesRun(t *testing.T) {
	_, g := testInstance(t, 60, 7)
	edges := g.Edges()
	const tt = 1.5
	sp := graph.New(g.N())
	ref := graph.New(g.N())
	refAdded := Run(ref, edges, tt)
	s := graph.AcquireSearcher(g.N())
	defer graph.ReleaseSearcher(s)
	added := 0
	for _, e := range edges {
		if Accept(s, sp, e, tt) {
			sp.AddEdge(e.U, e.V, e.W)
			added++
		}
	}
	if added != refAdded || sp.M() != added {
		t.Fatalf("Accept loop added %d edges (m=%d), Run added %d", added, sp.M(), refAdded)
	}
	for u := 0; u < g.N(); u++ {
		if got, want := sp.Neighbors(u), ref.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("row %d differs: %v vs %v", u, got, want)
		}
	}
	// Accept must not mutate the spanner.
	m := sp.M()
	Accept(s, sp, edges[0], tt)
	if sp.M() != m {
		t.Fatal("Accept mutated the spanner")
	}
}
