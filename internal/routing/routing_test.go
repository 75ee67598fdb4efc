package routing

import (
	"errors"
	"math"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/graph/graphtest"
	"topoctl/internal/greedy"
	"topoctl/internal/ubg"
)

// lineWorld is a 4-node path embedded on a line.
func lineWorld() (*graph.Graph, []geom.Point) {
	pts := []geom.Point{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	return g, pts
}

func TestShortestPathRoute(t *testing.T) {
	g, pts := lineWorld()
	g.AddEdge(0, 3, 10) // expensive shortcut
	r, err := NewRouter(g, pts)
	if err != nil {
		t.Fatal(err)
	}
	route, err := r.Route(SchemeShortestPath, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !route.Delivered || route.Cost != 3 || route.Hops() != 3 {
		t.Errorf("route = %+v", route)
	}
	want := []int{0, 1, 2, 3}
	for i, v := range want {
		if route.Path[i] != v {
			t.Errorf("path = %v", route.Path)
			break
		}
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	r, _ := NewRouter(g, []geom.Point{{0, 0}, {1, 0}, {9, 9}})
	route, err := r.Route(SchemeShortestPath, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if route.Delivered {
		t.Error("unreachable destination reported delivered")
	}
}

func TestGreedyDeliversOnPath(t *testing.T) {
	g, pts := lineWorld()
	r, _ := NewRouter(g, pts)
	route, _ := r.Route(SchemeGreedy, 0, 3)
	if !route.Delivered || route.Hops() != 3 {
		t.Errorf("route = %+v", route)
	}
}

// TestGreedyLocalMinimum: a classical void — the only progress requires
// moving away from the destination first.
func TestGreedyLocalMinimum(t *testing.T) {
	// s at origin; t to the east; s's only neighbor is west of it.
	pts := []geom.Point{{0, 0}, {-1, 0}, {2, 0}}
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 3)
	r, _ := NewRouter(g, pts)
	route, _ := r.Route(SchemeGreedy, 0, 2)
	if route.Delivered {
		t.Error("greedy escaped a local minimum — impossible")
	}
	// Shortest path still delivers.
	sp, _ := r.Route(SchemeShortestPath, 0, 2)
	if !sp.Delivered {
		t.Error("shortest path should deliver")
	}
}

func TestCompassDeliversOnPath(t *testing.T) {
	g, pts := lineWorld()
	r, _ := NewRouter(g, pts)
	route, _ := r.Route(SchemeCompass, 0, 3)
	if !route.Delivered {
		t.Errorf("route = %+v", route)
	}
}

func TestCompassLoopDetection(t *testing.T) {
	// Compass can loop; at minimum it must terminate and report failure on
	// a graph where the best-angle step oscillates.
	pts := []geom.Point{{0, 0}, {1, 0.5}, {1, -0.5}, {3, 0}}
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	// No edge to 3: all schemes must fail but terminate.
	r, _ := NewRouter(g, pts)
	route, _ := r.Route(SchemeCompass, 0, 3)
	if route.Delivered {
		t.Error("delivered to a disconnected destination")
	}
	if route.Hops() > 10 {
		t.Errorf("compass did not terminate promptly: %d hops", route.Hops())
	}
}

func TestRouteSelfAndValidation(t *testing.T) {
	g, pts := lineWorld()
	r, _ := NewRouter(g, pts)
	route, err := r.Route(SchemeGreedy, 2, 2)
	if err != nil || !route.Delivered || route.Hops() != 0 {
		t.Errorf("self route = %+v, %v", route, err)
	}
	if _, err := r.Route(SchemeGreedy, -1, 2); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := r.Route(Scheme(99), 0, 1); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := NewRouter(g, pts[:2]); err == nil {
		t.Error("mismatched points accepted")
	}
}

// TestShortestPathMatchesDijkstra on a random instance.
func TestShortestPathMatchesDijkstra(t *testing.T) {
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 60, Dim: 2, Seed: 70_000},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: 70_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewRouter(inst.G, inst.Points)
	d0 := graphtest.Dijkstra(inst.G, 0)
	for v := 1; v < inst.G.N(); v += 7 {
		route, _ := r.Route(SchemeShortestPath, 0, v)
		if !route.Delivered {
			t.Fatalf("0->%d undelivered", v)
		}
		if math.Abs(route.Cost-d0[v]) > 1e-9 {
			t.Fatalf("0->%d cost %v != %v", v, route.Cost, d0[v])
		}
		// Path must be consistent: sum of edge weights equals cost.
		var sum float64
		for i := 0; i+1 < len(route.Path); i++ {
			w, ok := inst.G.EdgeWeight(route.Path[i], route.Path[i+1])
			if !ok {
				t.Fatalf("path uses non-edge %d-%d", route.Path[i], route.Path[i+1])
			}
			sum += w
		}
		if math.Abs(sum-route.Cost) > 1e-9 {
			t.Fatalf("path sum %v != cost %v", sum, route.Cost)
		}
	}
}

// routeDistanceAgree routes and measures q on r and checks both against
// the graphtest reference distance on g, within 1e-9 relative; the
// path must walk g's edges and weigh its reported cost. It returns how
// many answers differed from the reference instead of failing when lax.
func routeDistanceAgree(t *testing.T, r *Router, g graph.Topology, qs []Query, lax bool) int {
	t.Helper()
	srch := graph.NewSearcher(g.N())
	wrong := 0
	for _, q := range qs {
		want := graphtest.Dijkstra(g, q.S)[q.T]
		ok := !math.IsInf(want, 1)
		route, err := r.RouteWith(srch, SchemeShortestPath, q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := r.Distance(srch, q.S, q.T)
		if err != nil {
			t.Fatal(err)
		}
		if route.Delivered != ok || (ok && (math.Abs(route.Cost-want) > 1e-9*want || math.Abs(d-want) > 1e-9*want)) {
			if !lax {
				t.Fatalf("%v: route %v (delivered %v), distance %v; reference %v (reachable %v)",
					q, route.Cost, route.Delivered, d, want, ok)
			}
			wrong++
			continue
		}
		if w, walk := graph.PathWeight(g, route.Path); ok && (!walk || math.Abs(w-route.Cost) > 1e-9*w) {
			t.Fatalf("%v: path %v weighs %v (walk %v), cost %v", q, route.Path, w, walk, route.Cost)
		}
	}
	return wrong
}

// TestEuclideanRouterExact: a router declared Euclidean (A* for routes and
// the Distance fallback) gives the reference answers on a Euclidean
// instance, both on the full network and on a spanner of it.
func TestEuclideanRouterExact(t *testing.T) {
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 150, Dim: 2, Seed: 72_000},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: 72_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	qs := RandomQueries(inst.G.N(), 200, 9)
	for _, g := range []graph.Topology{inst.G, graph.Freeze(greedy.Spanner(inst.G, 1.5))} {
		r, err := NewRouter(g, inst.Points)
		if err != nil {
			t.Fatal(err)
		}
		r.SetEuclidean()
		routeDistanceAgree(t, r, g, qs, false)
	}
}

// TestUndeclaredRouterExactOnEnergyMetric is the negative control: on an
// energy-metric instance (w = d², below d for every d < 1) the
// straight-line potential overestimates, so a router that is not declared
// Euclidean must keep the blind kernel — and does, returning exact costs
// on every pair. Declaring the same router Euclidean breaks some of them,
// which is what makes the instance a control.
func TestUndeclaredRouterExactOnEnergyMetric(t *testing.T) {
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 150, Dim: 2, Seed: 73_000},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: 73_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	energy := graph.New(inst.G.N())
	for _, e := range inst.G.Edges() {
		energy.AddEdge(e.U, e.V, e.W*e.W)
	}
	qs := RandomQueries(energy.N(), 200, 9)
	r, err := NewRouter(energy, inst.Points)
	if err != nil {
		t.Fatal(err)
	}
	routeDistanceAgree(t, r, energy, qs, false)
	r.SetEuclidean()
	if wrong := routeDistanceAgree(t, r, energy, qs, true); wrong == 0 {
		t.Fatal("a Euclidean-declared router answered every energy-metric pair exactly; the control does not discriminate")
	}
}

// TestSpannerRoutingWithinT: shortest-path routing over a t-spanner must
// stay within t of the full network on every query.
func TestSpannerRoutingWithinT(t *testing.T) {
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: 80, Dim: 2, Seed: 71_000},
		ubg.Config{Alpha: 0.8, Model: ubg.ModelAll, Seed: 71_000},
	)
	if err != nil {
		t.Fatal(err)
	}
	const tval = 1.5
	sp := greedy.Spanner(inst.G, tval)
	full, _ := NewRouter(inst.G, inst.Points)
	sparse, _ := NewRouter(sp, inst.Points)
	queries := RandomQueries(inst.G.N(), 100, 3)
	for _, q := range queries {
		a, _ := full.Route(SchemeShortestPath, q.S, q.T)
		b, _ := sparse.Route(SchemeShortestPath, q.S, q.T)
		if !b.Delivered {
			t.Fatalf("spanner failed to deliver %v", q)
		}
		if b.Cost > tval*a.Cost+1e-9 {
			t.Fatalf("query %v: spanner cost %v > t × %v", q, b.Cost, a.Cost)
		}
	}
}

func TestEvaluateAggregates(t *testing.T) {
	g, pts := lineWorld()
	r, _ := NewRouter(g, pts)
	queries := []Query{{S: 0, T: 3}, {S: 3, T: 0}, {S: 1, T: 2}}
	base := []float64{3, 3, 1}
	st, err := r.Evaluate(SchemeShortestPath, queries, base)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered != 3 || st.Queries != 3 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.AvgStretch-1) > 1e-12 {
		t.Errorf("AvgStretch = %v, want 1", st.AvgStretch)
	}
	if math.Abs(st.AvgCost-7.0/3) > 1e-12 {
		t.Errorf("AvgCost = %v", st.AvgCost)
	}
}

func TestRandomQueriesProperties(t *testing.T) {
	qs := RandomQueries(10, 50, 1)
	if len(qs) != 50 {
		t.Fatalf("len = %d", len(qs))
	}
	for _, q := range qs {
		if q.S == q.T || q.S < 0 || q.S >= 10 || q.T < 0 || q.T >= 10 {
			t.Fatalf("bad query %+v", q)
		}
	}
	// Deterministic under seed.
	qs2 := RandomQueries(10, 50, 1)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeShortestPath.String() != "shortest-path" || SchemeGreedy.String() != "greedy" ||
		SchemeCompass.String() != "compass" || Scheme(0).String() != "unknown" {
		t.Error("scheme strings wrong")
	}
}

func TestRouteOutOfRange(t *testing.T) {
	g, pts := lineWorld()
	r, err := NewRouter(g, pts)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	cases := []struct {
		name    string
		s, d    int
		wantErr bool
	}{
		{"negative src", -1, 1, true},
		{"negative dst", 1, -1, true},
		{"src == n", n, 1, true},
		{"dst == n", 1, n, true},
		{"src far out", n + 100, 0, true},
		{"both out", -3, n + 3, true},
		{"first vertex ok", 0, n - 1, false},
		{"last vertex ok", n - 1, 0, false},
		{"self route ok", 2, 2, false},
	}
	for _, scheme := range []Scheme{SchemeShortestPath, SchemeGreedy, SchemeCompass} {
		for _, c := range cases {
			route, err := r.Route(scheme, c.s, c.d)
			if c.wantErr {
				if !errors.Is(err, ErrOutOfRange) {
					t.Errorf("%s/%s: err = %v, want ErrOutOfRange", scheme, c.name, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: unexpected error %v", scheme, c.name, err)
			} else if len(route.Path) == 0 || route.Path[0] != c.s {
				t.Errorf("%s/%s: route = %+v", scheme, c.name, route)
			}
		}
	}
	if _, err := r.Route(Scheme(99), 0, 1); err == nil || errors.Is(err, ErrOutOfRange) {
		t.Errorf("unknown scheme: err = %v, want non-range error", err)
	}
}

func TestRouteWithReusesSearcher(t *testing.T) {
	g, pts := lineWorld()
	r, err := NewRouter(g, pts)
	if err != nil {
		t.Fatal(err)
	}
	srch := graph.NewSearcher(g.N())
	for i := 0; i < 3; i++ {
		route, err := r.RouteWith(srch, SchemeShortestPath, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !route.Delivered || route.Cost != 3 {
			t.Errorf("pass %d: route = %+v", i, route)
		}
	}
}

// fixedOracle certifies a canned answer for one pair and declines others.
type fixedOracle struct {
	s, t int
	d    float64
}

func (o fixedOracle) Query(s, t int) (float64, bool) {
	if (s == o.s && t == o.t) || (s == o.t && t == o.s) {
		return o.d, true
	}
	return 0, false
}

func TestDistanceOracleFirstThenFallback(t *testing.T) {
	g, pts := lineWorld()
	r, err := NewRouter(g, pts)
	if err != nil {
		t.Fatal(err)
	}
	srch := graph.NewSearcher(g.N())

	// No oracle: fallback search answers, fromLabels false.
	d, fromLabels, err := r.Distance(srch, 0, 3)
	if err != nil || fromLabels || d != 3 {
		t.Fatalf("Distance(0,3) = %v, fromLabels=%v, err=%v; want 3 via search", d, fromLabels, err)
	}

	// Oracle certifies one pair; that pair short-circuits, others search.
	r.SetDistanceOracle(fixedOracle{s: 0, t: 3, d: 3})
	d, fromLabels, err = r.Distance(srch, 0, 3)
	if err != nil || !fromLabels || d != 3 {
		t.Fatalf("Distance(0,3) = %v, fromLabels=%v, err=%v; want 3 via labels", d, fromLabels, err)
	}
	d, fromLabels, err = r.Distance(srch, 1, 3)
	if err != nil || fromLabels || d != 2 {
		t.Fatalf("Distance(1,3) = %v, fromLabels=%v, err=%v; want 2 via fallback", d, fromLabels, err)
	}

	// Out-of-range endpoints wrap ErrOutOfRange, like Route.
	if _, _, err := r.Distance(srch, 0, 99); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("Distance(0,99) err = %v, want ErrOutOfRange", err)
	}

	// Unreachable pairs report graph.Inf, not an error.
	g2 := graph.New(2)
	r2, err := NewRouter(g2, pts[:2])
	if err != nil {
		t.Fatal(err)
	}
	d, _, err = r2.Distance(graph.NewSearcher(2), 0, 1)
	if err != nil || !math.IsInf(d, 1) {
		t.Fatalf("disconnected Distance = %v, err=%v; want +Inf", d, err)
	}
}
