package service

import (
	"testing"

	"topoctl/internal/routing"
)

// TestExplainMatchesRoute: /analyze/route must explain the path /route
// serves. Both run the same goal-directed kernel in the same orientation,
// so between equal-cost paths they pick the same one: for sampled pairs in
// both orientations, the explanation's hops walk exactly the served path,
// and cost and stretch agree bit for bit.
func TestExplainMatchesRoute(t *testing.T) {
	snap := testService(t, 128, Options{}).Snapshot()
	n := len(snap.Alive)
	compared := 0
	for a := 0; a < n; a += 7 {
		for b := 0; b < n; b += 11 {
			res, err := snap.Route(routing.SchemeShortestPath, a, b)
			if err != nil {
				t.Fatal(err)
			}
			exp, err := snap.AnalyzeRoute(AnalyzeRouteRequest{Src: a, Dst: b})
			if err != nil {
				t.Fatal(err)
			}
			if exp.Reachable != res.Route.Delivered {
				t.Fatalf("(%d,%d): explain reachable=%v, route delivered=%v", a, b, exp.Reachable, res.Route.Delivered)
			}
			if !res.Route.Delivered {
				continue
			}
			path := res.Route.Path
			if len(exp.Path) != len(path)-1 {
				t.Fatalf("(%d,%d): explain has %d hops, route path %v", a, b, len(exp.Path), path)
			}
			for i, h := range exp.Path {
				if h.From != path[i] || h.To != path[i+1] {
					t.Fatalf("(%d,%d): explain hop %d is %d→%d, route path %v", a, b, i, h.From, h.To, path)
				}
			}
			if exp.SpannerCost != res.Route.Cost || exp.Stretch != res.Stretch {
				t.Fatalf("(%d,%d): explain cost %v stretch %v, route cost %v stretch %v",
					a, b, exp.SpannerCost, exp.Stretch, res.Route.Cost, res.Stretch)
			}
			compared++
		}
	}
	if compared < 150 {
		t.Fatalf("only %d delivered pairs compared", compared)
	}
}
