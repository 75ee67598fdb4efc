package core

import (
	"math/rand"
	"testing"

	"topoctl/internal/cluster"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// TestCoveredCzumajZhaoLemma validates Lemma 3 itself (Figures 1 and 3):
// for random triples (u, v, z) satisfying the covered-edge preconditions,
// the edge {u,z} followed by an exact t-spanner path z→v is a t-spanner
// path u→v. We verify the triangle-inequality form:
// |uz| + t·|zv| <= t·|uv| whenever ∠vuz <= θ, |uz| <= |uv| and
// t >= 1/(cos θ − sin θ).
func TestCoveredCzumajZhaoLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		p, err := NewParams(eps, 0.75, 2)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for trial := 0; trial < 20000; trial++ {
			u := geom.Point{0, 0}
			v := geom.Point{rng.Float64(), rng.Float64()}
			z := geom.Point{rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5}
			duv, duz, dzv := geom.Dist(u, v), geom.Dist(u, z), geom.Dist(z, v)
			if duv == 0 || duz == 0 {
				continue
			}
			if duz > duv || geom.Angle(u, v, z) > p.Theta {
				continue
			}
			checked++
			if duz+p.T*dzv > p.T*duv+1e-9 {
				t.Fatalf("eps=%v: Czumaj–Zhao violated: |uz|=%v |zv|=%v |uv|=%v theta=%v angle=%v",
					eps, duz, dzv, duv, p.Theta, geom.Angle(u, v, z))
			}
		}
		if checked < 100 {
			t.Fatalf("eps=%v: only %d triples satisfied preconditions", eps, checked)
		}
	}
}

// selectFixture builds a small two-cluster scene for selection tests.
type selectFixture struct {
	points []geom.Point
	sp     *graph.Graph
	cov    *cluster.Cover
}

func newSelectFixture(t *testing.T) *selectFixture {
	t.Helper()
	// Two tight clusters of 3 nodes each, far apart.
	points := []geom.Point{
		{0, 0}, {0.02, 0}, {0, 0.02}, // cluster around 0
		{0.9, 0}, {0.92, 0}, {0.9, 0.02}, // cluster around 3
	}
	sp := graph.New(6)
	// Spanner so far: intra-cluster stars.
	sp.AddEdge(0, 1, 0.02)
	sp.AddEdge(0, 2, 0.02)
	sp.AddEdge(3, 4, 0.02)
	sp.AddEdge(3, 5, 0.02)
	cov := cluster.GreedyCover(sp, 0.05)
	return &selectFixture{points: points, sp: sp, cov: cov}
}

func TestSelectQueriesOnePerClusterPair(t *testing.T) {
	fx := newSelectFixture(t)
	var edges []EdgeInfo
	for _, pr := range [][2]int{{0, 3}, {0, 4}, {1, 3}, {1, 4}, {2, 5}} {
		d := geom.Dist(fx.points[pr[0]], fx.points[pr[1]])
		edges = append(edges, EdgeInfo{U: pr[0], V: pr[1], Dist: d, W: d})
	}
	got, st := selectQueries(fx.points, fx.sp, fx.cov, edges, selectOpts{
		T: 1.5, Theta: 0.15, Alpha: 1.0, DisableCoveredFilter: true,
	})
	if len(got) != 1 {
		t.Fatalf("selected %d query edges, want 1 (one per cluster pair): %v", len(got), got)
	}
	if st.Candidates != 5 {
		t.Errorf("candidates = %d, want 5", st.Candidates)
	}
	// Formula (1): minimize t·w − d(a,x) − d(b,y). All weights are close;
	// the winner must be the one maximizing d(a,x)+d(b,y) adjusted by t·w.
	best := got[0]
	bestScore := 1.5*best.W - fx.cov.Dist[best.U] - fx.cov.Dist[best.V]
	for _, e := range edges {
		score := 1.5*e.W - fx.cov.Dist[e.U] - fx.cov.Dist[e.V]
		if score < bestScore-1e-12 {
			t.Errorf("edge %v has score %v < selected %v", e, score, bestScore)
		}
	}
}

func TestSelectQueriesSkipsSameCluster(t *testing.T) {
	fx := newSelectFixture(t)
	d := geom.Dist(fx.points[1], fx.points[2])
	got, st := selectQueries(fx.points, fx.sp, fx.cov, []EdgeInfo{{U: 1, V: 2, Dist: d, W: d}}, selectOpts{
		T: 1.5, Theta: 0.15, Alpha: 1.0,
	})
	if len(got) != 0 || st.SameCluster != 1 {
		t.Errorf("same-cluster edge not skipped: %v, %+v", got, st)
	}
}

func TestSelectQueriesSkipsSpannerEdges(t *testing.T) {
	fx := newSelectFixture(t)
	got, st := selectQueries(fx.points, fx.sp, fx.cov, []EdgeInfo{{U: 0, V: 1, Dist: 0.02, W: 0.02}}, selectOpts{
		T: 1.5, Theta: 0.15, Alpha: 1.0,
	})
	if len(got) != 0 || st.AlreadyInSpanner != 1 {
		t.Errorf("spanner edge not skipped: %v, %+v", got, st)
	}
}

func TestCoveredDetectsCoverage(t *testing.T) {
	// u at origin; spanner edge u-z short and nearly parallel to u-v;
	// z close to v.
	points := []geom.Point{
		{0, 0},      // u = 0
		{0.8, 0},    // v = 1
		{0.3, 0.01}, // z = 2: angle(v,u,z) tiny, |vz| = ~0.5 <= alpha
	}
	sp := graph.New(3)
	sp.AddEdge(0, 2, geom.Dist(points[0], points[2]))
	duv := geom.Dist(points[0], points[1])
	if !Covered(points, sp, 0, 1, duv, 0.75, 0.15) {
		t.Error("clearly covered edge not detected")
	}
	// Symmetric case: spanner edge at v instead.
	sp2 := graph.New(3)
	points2 := []geom.Point{
		{0, 0},      // u
		{0.8, 0},    // v
		{0.5, 0.01}, // z near the u side of v
	}
	sp2.AddEdge(1, 2, geom.Dist(points2[1], points2[2]))
	if !Covered(points2, sp2, 0, 1, 0.8, 0.75, 0.15) {
		t.Error("symmetric covered edge not detected")
	}
}

func TestCoveredRejectsLongSpannerEdge(t *testing.T) {
	// z collinear but BEYOND v: |uz| > |uv| must disqualify (Lemma 3
	// precondition).
	points := []geom.Point{
		{0, 0},   // u
		{0.5, 0}, // v
		{0.9, 0}, // z: angle 0, |vz| = 0.4 <= alpha, but |uz| > |uv|
	}
	sp := graph.New(3)
	sp.AddEdge(0, 2, 0.9)
	if Covered(points, sp, 0, 1, 0.5, 0.75, 0.15) {
		t.Error("edge covered by a longer spanner edge — Lemma 3 precondition ignored")
	}
}

func TestCoveredRejectsWideAngle(t *testing.T) {
	points := []geom.Point{
		{0, 0},   // u
		{0.5, 0}, // v
		{0, 0.3}, // z: angle π/2
	}
	sp := graph.New(3)
	sp.AddEdge(0, 2, 0.3)
	if Covered(points, sp, 0, 1, 0.5, 0.75, 0.15) {
		t.Error("edge covered despite angle > theta")
	}
}

func TestCoveredRejectsFarZ(t *testing.T) {
	points := []geom.Point{
		{0, 0},       // u
		{0.95, 0},    // v
		{0.1, 0.001}, // z: tiny angle but |vz| = 0.85 > alpha = 0.5
	}
	sp := graph.New(3)
	sp.AddEdge(0, 2, geom.Dist(points[0], points[2]))
	if Covered(points, sp, 0, 1, 0.95, 0.5, 0.15) {
		t.Error("edge covered despite |vz| > alpha")
	}
}

func TestFindRedundantPairsDetectsMutualRedundancy(t *testing.T) {
	// Two parallel edges of equal weight w joined by near-zero connectors:
	// s = 0-ish, so s + w <= t1·w holds both ways for any t1 > 1.
	h := graph.New(4)
	h.AddEdge(0, 2, 0.001) // u ~ u'
	h.AddEdge(1, 3, 0.001) // v ~ v'
	added := []EdgeInfo{
		{U: 0, V: 1, Dist: 0.5, W: 0.5},
		{U: 2, V: 3, Dist: 0.5, W: 0.5},
	}
	pairs := findRedundantPairs(h, added, 1.25, 1.0)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want one", pairs)
	}
}

func TestFindRedundantPairsCrossPairing(t *testing.T) {
	// Same scene but the second edge is recorded with swapped endpoints:
	// the cross pairing (u↔v', v↔u') must still find it.
	h := graph.New(4)
	h.AddEdge(0, 2, 0.001)
	h.AddEdge(1, 3, 0.001)
	added := []EdgeInfo{
		{U: 0, V: 1, Dist: 0.5, W: 0.5},
		{U: 3, V: 2, Dist: 0.5, W: 0.5},
	}
	pairs := findRedundantPairs(h, added, 1.25, 1.0)
	if len(pairs) != 1 {
		t.Fatalf("cross-pairing missed: %v", pairs)
	}
}

func TestFindRedundantPairsRespectsT1(t *testing.T) {
	// Connectors too long for t1 = 1.25: 2×0.2 + 0.5 = 0.9 > 0.625.
	h := graph.New(4)
	h.AddEdge(0, 2, 0.2)
	h.AddEdge(1, 3, 0.2)
	added := []EdgeInfo{
		{U: 0, V: 1, Dist: 0.5, W: 0.5},
		{U: 2, V: 3, Dist: 0.5, W: 0.5},
	}
	if pairs := findRedundantPairs(h, added, 1.25, 1.0); len(pairs) != 0 {
		t.Fatalf("non-redundant pair flagged: %v", pairs)
	}
}

func TestFindRedundantPairsDisconnected(t *testing.T) {
	h := graph.New(4)
	added := []EdgeInfo{
		{U: 0, V: 1, Dist: 0.5, W: 0.5},
		{U: 2, V: 3, Dist: 0.5, W: 0.5},
	}
	if pairs := findRedundantPairs(h, added, 1.25, 1.0); len(pairs) != 0 {
		t.Fatalf("disconnected endpoints flagged: %v", pairs)
	}
}
