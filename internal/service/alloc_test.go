package service

import (
	"testing"

	"topoctl/internal/routing"
)

// TestSearchAllocsPerRequest pins the allocation count of the two serving
// paths that check a searcher out of graph's pool: an uncached
// shortest-path Snapshot.Route (every call a distinct pair, so every call
// misses the cache and runs both A* searches) and a Snapshot.Distance that
// falls back to search (labels off). On a warmed service the pooled
// scratch is reused, so neither request allocates search state; what is
// left is the route's own result path.
func TestSearchAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation pin not meaningful")
	}
	svc := testService(t, 256, Options{})
	snap := svc.Snapshot()
	n := len(snap.Alive)
	const runs = 200
	var pairs [][2]int
	for src := 0; src < n && len(pairs) < runs+1; src++ {
		for dst := src + 1; dst < n && len(pairs) < runs+1; dst += 17 {
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	// Warm the pool so the measured calls find a grown searcher.
	if _, err := snap.Distance(0, n-1); err != nil {
		t.Fatal(err)
	}

	next := 0
	route := testing.AllocsPerRun(runs, func() {
		p := pairs[next]
		next++
		if _, err := snap.Route(routing.SchemeShortestPath, p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	})
	next = 0
	dist := testing.AllocsPerRun(runs, func() {
		p := pairs[next]
		next++
		res, err := snap.Distance(p[0], p[1])
		if err != nil || res.FromLabels {
			t.Fatalf("distance = %+v, %v; want a search answer", res, err)
		}
	})
	if route > 1 {
		t.Errorf("uncached Route allocates %v per op, want ≤ 1 (the path)", route)
	}
	if dist != 0 {
		t.Errorf("search Distance allocates %v per op, want 0", dist)
	}
}
