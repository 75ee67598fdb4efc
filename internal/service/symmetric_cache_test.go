package service

import (
	"math"
	"reflect"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/routing"
)

// pickDeliveredPair returns a live pair (lo, hi) with lo < hi whose
// shortest-path route is delivered and at least two hops long (so path
// direction is observable).
func pickDeliveredPair(t *testing.T, snap *Snapshot) (int, int) {
	t.Helper()
	n := len(snap.Alive)
	for lo := 0; lo < n; lo++ {
		for hi := n - 1; hi > lo; hi-- {
			if !snap.Alive[lo] || !snap.Alive[hi] || snap.Spanner.HasEdge(lo, hi) {
				continue
			}
			r, err := snap.Route(routing.SchemeShortestPath, lo, hi)
			if err != nil || !r.Route.Delivered || len(r.Route.Path) < 3 {
				continue
			}
			return lo, hi
		}
	}
	t.Fatal("no delivered multi-hop pair found")
	return 0, 0
}

// TestRouteCacheSymmetricFlip: a shortest-path route cached in one
// orientation must serve the flipped query from the cache, with the path
// reversed and cost/stretch intact — and the reversal must not corrupt the
// stored entry.
func TestRouteCacheSymmetricFlip(t *testing.T) {
	svc := testService(t, 96, Options{})
	snap := svc.Snapshot()
	lo, hi := pickDeliveredPair(t, snap)

	fwd, err := snap.Route(routing.SchemeShortestPath, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !fwd.Cached {
		// pickDeliveredPair already routed (lo,hi), so this is a hit.
		t.Fatalf("second (lo,hi) query not cached")
	}
	rev, err := snap.Route(routing.SchemeShortestPath, hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	if !rev.Cached {
		t.Fatalf("flipped query (hi,lo) missed the canonical cache entry")
	}
	if rev.Route.Cost != fwd.Route.Cost || rev.Stretch != fwd.Stretch || rev.Route.Delivered != fwd.Route.Delivered {
		t.Fatalf("flipped hit changed scalars: %+v vs %+v", rev, fwd)
	}
	p, q := fwd.Route.Path, rev.Route.Path
	if len(p) != len(q) {
		t.Fatalf("path lengths differ: %d vs %d", len(p), len(q))
	}
	for i := range p {
		if p[i] != q[len(q)-1-i] {
			t.Fatalf("flipped path is not the reverse: %v vs %v", p, q)
		}
	}
	if q[0] != hi || q[len(q)-1] != lo {
		t.Fatalf("flipped path endpoints %d..%d, want %d..%d", q[0], q[len(q)-1], hi, lo)
	}
	// The reversed path must itself walk real spanner edges. Its weight is
	// summed in the other direction than the search summed the cost, so
	// the two agree to rounding, not bit for bit.
	if w, ok := graph.PathWeight(snap.Spanner, q); !ok || math.Abs(w-rev.Route.Cost) > 1e-9*rev.Route.Cost {
		t.Fatalf("flipped path does not certify: weight %v ok=%v, cost %v", w, ok, rev.Route.Cost)
	}
	// Re-query the original orientation: the in-cache entry must be intact
	// (reversal happens on a copy, never in place).
	again, err := snap.Route(routing.SchemeShortestPath, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if again.Route.Path[i] != p[i] {
			t.Fatalf("cached entry mutated by flipped hit: %v vs %v", again.Route.Path, p)
		}
	}
}

// TestRouteReplyIndependentOfCache: a shortest-path reply must not depend
// on what the cache holds. Two services boot from the same points; on one
// every (hi, lo) query is a miss, on the other it is a flipped hit of the
// (lo, hi) entry. Path, cost, and stretch must be identical — not merely
// of equal cost — for every sampled pair.
func TestRouteReplyIndependentOfCache(t *testing.T) {
	cold := testService(t, 128, Options{}).Snapshot()
	warm := testService(t, 128, Options{}).Snapshot()
	n := len(cold.Alive)
	compared := 0
	for lo := 0; lo < n; lo += 3 {
		for hi := lo + 1; hi < n; hi += 5 {
			miss, err := cold.Route(routing.SchemeShortestPath, hi, lo)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.Route(routing.SchemeShortestPath, lo, hi); err != nil {
				t.Fatal(err)
			}
			hit, err := warm.Route(routing.SchemeShortestPath, hi, lo)
			if err != nil {
				t.Fatal(err)
			}
			if miss.Cached || !hit.Cached {
				t.Fatalf("(%d,%d): cached flags miss=%v hit=%v", hi, lo, miss.Cached, hit.Cached)
			}
			if !reflect.DeepEqual(miss.Route, hit.Route) || miss.Stretch != hit.Stretch {
				t.Fatalf("(%d,%d): uncached reply %+v (stretch %v) differs from flipped hit %+v (stretch %v)",
					hi, lo, miss.Route, miss.Stretch, hit.Route, hit.Stretch)
			}
			compared++
		}
	}
	if compared < 400 {
		t.Fatalf("only %d pairs compared", compared)
	}
}

// TestRouteCacheSymmetricCapacity: querying both orientations of K
// distinct shortest-path pairs must occupy K cache entries (not 2K) and
// score one hit per pair — the capacity-doubling the canonical key buys.
func TestRouteCacheSymmetricCapacity(t *testing.T) {
	svc := testService(t, 64, Options{})
	snap := svc.Snapshot()
	hits0, miss0 := svc.ctr.cacheHits.Load(), svc.ctr.cacheMiss.Load()
	pairs := 0
	for src := 0; src < 16; src++ {
		for dst := src + 1; dst < 16; dst++ {
			if _, err := snap.Route(routing.SchemeShortestPath, src, dst); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Route(routing.SchemeShortestPath, dst, src); err != nil {
				t.Fatal(err)
			}
			pairs++
		}
	}
	if got := snap.cache.len(); got != pairs {
		t.Fatalf("cache holds %d entries for %d symmetric pairs, want %d", got, pairs, pairs)
	}
	hits, miss := svc.ctr.cacheHits.Load()-hits0, svc.ctr.cacheMiss.Load()-miss0
	if hits != uint64(pairs) || miss != uint64(pairs) {
		t.Fatalf("hits/misses = %d/%d, want %d/%d", hits, miss, pairs, pairs)
	}
}

// TestRouteCacheSymmetricUndelivered: an undelivered shortest-path route
// carries only its source as the failure prefix; a flipped cache hit must
// report the flipped query's source, not the cached orientation's.
func TestRouteCacheSymmetricUndelivered(t *testing.T) {
	// Two clusters farther apart than the connectivity radius: routes
	// between them are undeliverable.
	pts := []geom.Point{{0, 0}, {0.5, 0}, {10, 0}, {10.5, 0}}
	svc, err := New(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	snap := svc.Snapshot()

	first, err := snap.Route(routing.SchemeShortestPath, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Route.Delivered || len(first.Route.Path) != 1 || first.Route.Path[0] != 3 {
		t.Fatalf("route 3->0 = %+v, want undelivered prefix [3]", first.Route)
	}
	flipped, err := snap.Route(routing.SchemeShortestPath, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !flipped.Cached {
		t.Fatal("flipped undelivered query missed the canonical entry")
	}
	if flipped.Route.Delivered || len(flipped.Route.Path) != 1 || flipped.Route.Path[0] != 0 {
		t.Fatalf("flipped undelivered route = %+v, want prefix [0]", flipped.Route)
	}
	// And the same starting from the flipped orientation.
	if _, err := snap.Route(routing.SchemeShortestPath, 1, 2); err != nil {
		t.Fatal(err)
	}
	back, err := snap.Route(routing.SchemeShortestPath, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Cached || back.Route.Delivered || len(back.Route.Path) != 1 || back.Route.Path[0] != 2 {
		t.Fatalf("cached undelivered 2->1 = %+v, want prefix [2]", back.Route)
	}
}

// TestRouteCacheGeographicKeepsOrientation: greedy geographic forwarding
// is direction-dependent, so its cache keys must not be canonicalized — a
// flipped query is a miss and a separate entry.
func TestRouteCacheGeographicKeepsOrientation(t *testing.T) {
	svc := testService(t, 64, Options{})
	snap := svc.Snapshot()
	lo, hi := pickDeliveredPair(t, snap)
	before := snap.cache.len()
	if _, err := snap.Route(routing.SchemeGreedy, lo, hi); err != nil {
		t.Fatal(err)
	}
	rev, err := snap.Route(routing.SchemeGreedy, hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Cached {
		t.Fatal("flipped greedy query served from cache; geographic schemes are not symmetric")
	}
	if got := snap.cache.len(); got != before+2 {
		t.Fatalf("greedy orientations share an entry: %d entries, want %d", got, before+2)
	}
}
