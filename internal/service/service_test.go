package service

import (
	"errors"
	"math"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/routing"
	"topoctl/internal/ubg"
)

// testService spins up a service over a dense-enough uniform deployment.
func testService(t testing.TB, n int, opts Options) *Service {
	t.Helper()
	side := ubg.DensitySide(n, 2, 1, 8)
	pts := geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: n, Dim: 2, Side: side, Seed: 4242,
	})
	svc, err := New(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestRouteShortestPathIsSnapshotConsistent(t *testing.T) {
	svc := testService(t, 96, Options{})
	snap := svc.Snapshot()
	if snap.Version != 1 {
		t.Fatalf("initial version = %d, want 1", snap.Version)
	}
	routed := 0
	for src := 0; src < snap.Live(); src += 7 {
		for dst := 1; dst < snap.Live(); dst += 13 {
			res, err := snap.Route(routing.SchemeShortestPath, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Route.Delivered {
				continue // disconnected pair is legal, just uninteresting
			}
			routed++
			p := res.Route.Path
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("path %v does not span (%d,%d)", p, src, dst)
			}
			w, ok := graph.PathWeight(snap.Spanner, p)
			if !ok || math.Abs(w-res.Route.Cost) > 1e-9 {
				t.Fatalf("path %v not valid on snapshot: weight (%v,%v) vs cost %v", p, w, ok, res.Route.Cost)
			}
			if res.Stretch > snap.T+1e-9 || res.Stretch < 1-1e-9 {
				t.Fatalf("stretch %v outside [1, %v]", res.Stretch, snap.T)
			}
			if res.Version != snap.Version {
				t.Fatalf("result version %d != snapshot version %d", res.Version, snap.Version)
			}
		}
	}
	if routed == 0 {
		t.Fatal("no pair routed; deployment too sparse for the test to mean anything")
	}
}

func TestRouteCacheHitsAndSelfRoute(t *testing.T) {
	svc := testService(t, 64, Options{})
	first, err := svc.Route(routing.SchemeShortestPath, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query claims a cache hit")
	}
	second, err := svc.Route(routing.SchemeShortestPath, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat query missed the cache")
	}
	if second.Route.Cost != first.Route.Cost || second.Stretch != first.Stretch {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}
	self, err := svc.Route(routing.SchemeShortestPath, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !self.Route.Delivered || self.Route.Cost != 0 || self.Stretch != 1 {
		t.Fatalf("self route = %+v", self)
	}
	st := svc.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 || st.Routes != 3 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestMutateSwapsSnapshotAndInvalidatesCache(t *testing.T) {
	svc := testService(t, 64, Options{})
	before := svc.Snapshot()
	if _, err := svc.Route(routing.SchemeShortestPath, 0, 7); err != nil {
		t.Fatal(err)
	}
	if before.cache.len() != 1 {
		t.Fatalf("cache entries = %d, want 1", before.cache.len())
	}

	// Batch: one join, one move, one leave.
	target := before.bboxHi
	res, err := svc.Mutate([]Op{
		{Kind: OpJoin, Point: geom.Point{target[0] / 2, target[1] / 2}},
		{Kind: OpMove, ID: 3, Point: geom.Point{target[0] / 3, target[1] / 3}},
		{Kind: OpLeave, ID: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 3 || res.Version != before.Version+1 {
		t.Fatalf("mutate result = %+v", res)
	}
	joined := res.Results[0].ID

	after := svc.Snapshot()
	if after == before || after.Version != before.Version+1 {
		t.Fatalf("snapshot not swapped: %d -> %d", before.Version, after.Version)
	}
	if after.cache.len() != 0 {
		t.Fatal("new snapshot inherited cache entries")
	}
	if !after.Alive[joined] || after.Alive[7] {
		t.Fatalf("alive mask wrong: joined=%v departed=%v", after.Alive[joined], after.Alive[7])
	}
	// The old snapshot is frozen: node 7 still routable there, not on the new one.
	if _, err := before.Route(routing.SchemeShortestPath, 0, 7); err != nil {
		t.Fatalf("old snapshot lost node 7: %v", err)
	}
	if _, err := after.Route(routing.SchemeShortestPath, 0, 7); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("routing to departed node: err = %v, want ErrUnknownNode", err)
	}

	// Failed ops are reported per-op without failing the batch.
	res, err = svc.Mutate([]Op{
		{Kind: OpLeave, ID: 7},
		{Kind: "explode"},
		{Kind: OpMove, ID: 3, Point: geom.Point{0.1, 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Results[0].Err == "" || res.Results[1].Err == "" || res.Results[2].Err != "" {
		t.Fatalf("per-op outcomes = %+v", res.Results)
	}
}

func TestNeighborsAndStats(t *testing.T) {
	svc := testService(t, 80, Options{StretchSample: 2048})
	snap := svc.Snapshot()
	pt, nbrs, baseDeg, err := snap.Neighbors(5)
	if err != nil {
		t.Fatal(err)
	}
	if pt == nil || len(nbrs) == 0 || baseDeg < len(nbrs) {
		t.Fatalf("neighbors(5) = point %v, %d spanner nbrs, base degree %d", pt, len(nbrs), baseDeg)
	}
	for _, nb := range nbrs {
		w, ok := snap.Spanner.EdgeWeight(5, nb.ID)
		if !ok || w != nb.Weight {
			t.Fatalf("neighbor %+v not a spanner edge", nb)
		}
	}
	if _, _, _, err := snap.Neighbors(len(snap.Alive) + 5); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("out-of-range neighbors: err = %v", err)
	}

	st := svc.Stats()
	if st.Nodes != 80 || st.SpannerEdges != snap.Spanner.M() || st.BaseEdges != snap.Base.M() {
		t.Fatalf("stats = %+v", st)
	}
	if st.StretchEstimate < 1 || st.StretchEstimate > st.StretchBound+1e-9 {
		t.Fatalf("stretch estimate %v outside [1, %v]", st.StretchEstimate, st.StretchBound)
	}
	// The sample (2048) exceeds the base edge count: the value is exact.
	if !st.StretchExact {
		t.Fatalf("stretch over %d base edges should be exact", st.BaseEdges)
	}
	if st.BBoxHi[0] <= st.BBoxLo[0] || st.BBoxHi[1] <= st.BBoxLo[1] {
		t.Fatalf("degenerate bbox %v..%v", st.BBoxLo, st.BBoxHi)
	}
}

func TestClosedServiceRejectsMutations(t *testing.T) {
	svc := testService(t, 16, Options{})
	svc.Close()
	if _, err := svc.Mutate([]Op{{Kind: OpLeave, ID: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutate after close: err = %v", err)
	}
	// Queries still serve from the last snapshot.
	if _, err := svc.Route(routing.SchemeShortestPath, 0, 1); err != nil {
		t.Fatalf("route after close: %v", err)
	}
	svc.Close() // idempotent
}

func TestThreeDimensionalDeployment(t *testing.T) {
	pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: 40, Dim: 3, Side: 3, Seed: 6})
	svc, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatalf("3D deployment rejected: %v", err)
	}
	defer svc.Close()
	res, err := svc.Route(routing.SchemeShortestPath, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route.Delivered && res.Stretch > 1.5+1e-9 {
		t.Fatalf("3D stretch %v exceeds bound", res.Stretch)
	}
	st := svc.Stats()
	if len(st.BBoxLo) != 3 || len(st.BBoxHi) != 3 {
		t.Fatalf("3D bbox has wrong dimension: %v..%v", st.BBoxLo, st.BBoxHi)
	}
	if _, err := svc.Mutate([]Op{{Kind: OpJoin, Point: geom.Point{1, 1, 1}}}); err != nil {
		t.Fatal(err)
	}
}
