package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"topoctl/internal/analyze"
)

func TestAnalyzeHTTPEndpoints(t *testing.T) {
	svc, ts := testServer(t, 64)
	snap := svc.Snapshot()
	var src, dst int
	picked := 0
	for id, a := range snap.Alive {
		if a {
			if picked == 0 {
				src = id
			}
			dst = id
			picked++
		}
	}
	if picked < 2 {
		t.Fatal("test deployment too small")
	}

	var impact AnalyzeImpactResponse
	postJSON(t, ts.URL+"/analyze/impact",
		analyze.ImpactRequest{Vertices: []int{src}}, http.StatusOK, &impact)
	if impact.Version != snap.Version {
		t.Fatalf("impact version %d, snapshot %d", impact.Version, snap.Version)
	}
	if impact.FaultedCount != 1 || impact.Survivors != snap.Live()-1 {
		t.Fatalf("impact faulted=%d survivors=%d live=%d", impact.FaultedCount, impact.Survivors, snap.Live())
	}

	var around AnalyzeAroundResponse
	postJSON(t, ts.URL+"/analyze/around",
		analyze.AroundRequest{Center: src, Hops: 2}, http.StatusOK, &around)
	if around.Nodes == 0 || len(around.Elements.Nodes) != around.Nodes {
		t.Fatalf("around: %+v", around.AroundReport)
	}

	var route AnalyzeRouteResponse
	postJSON(t, ts.URL+"/analyze/route",
		AnalyzeRouteRequest{Src: src, Dst: dst}, http.StatusOK, &route)
	if route.Src != src || route.Dst != dst {
		t.Fatalf("route echo: %+v", route.RouteExplanation)
	}
	if route.Reachable && (route.Stretch < 1-1e-9 || len(route.Path) == 0) {
		t.Fatalf("reachable route: %+v", route.RouteExplanation)
	}

	var div AnalyzeDivergenceResponse
	getJSON(t, ts.URL+"/analyze/divergence?sample=64&buckets=4", http.StatusOK, &div)
	if div.BaseEdges != snap.Base.M() || div.SpannerEdges != snap.Spanner.M() {
		t.Fatalf("divergence edges: %+v", div.DivergenceReport)
	}
	if len(div.Histogram) != 4 {
		t.Fatalf("divergence histogram: %+v", div.Histogram)
	}

	// The /stats analyze section must have counted all four requests.
	var stats Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &stats)
	for _, ep := range []string{"impact", "around", "route", "divergence"} {
		rec, ok := stats.Analyze[ep]
		if !ok || rec.Requests == 0 {
			t.Fatalf("stats analyze[%q] = %+v (present %v)", ep, rec, ok)
		}
	}
}

func TestAnalyzeHTTPErrors(t *testing.T) {
	_, ts := testServer(t, 16)

	var e struct {
		Error string `json:"error"`
	}
	// Unknown vertex -> 404 with the envelope.
	postJSON(t, ts.URL+"/analyze/around",
		analyze.AroundRequest{Center: 9999}, http.StatusNotFound, &e)
	if e.Error == "" {
		t.Fatal("404 carried no error envelope")
	}
	// Bad knob -> 400.
	postJSON(t, ts.URL+"/analyze/around",
		analyze.AroundRequest{Center: 0, Hops: MaxAroundHops + 1}, http.StatusBadRequest, &e)
	// Half-specified region -> 400.
	postJSON(t, ts.URL+"/analyze/impact",
		map[string]any{"box_lo": []float64{0, 0}}, http.StatusBadRequest, &e)
	// Oversized fault set -> 400.
	big := make([]int, MaxFaultVertices+1)
	postJSON(t, ts.URL+"/analyze/impact",
		analyze.ImpactRequest{Vertices: big}, http.StatusBadRequest, &e)
	// Oversized divergence sample -> 400.
	getJSON(t, ts.URL+"/analyze/divergence?sample=99999", http.StatusBadRequest, &e)
	// Two bad parameters -> the 400 names the first in parse order, sample,
	// on every request.
	for i := 0; i < 16; i++ {
		e.Error = ""
		getJSON(t, ts.URL+"/analyze/divergence?sample=x&buckets=y", http.StatusBadRequest, &e)
		if !strings.Contains(e.Error, "sample") {
			t.Fatalf("request %d: error %q does not name sample", i, e.Error)
		}
	}
}

// TestErrorEnvelopeEverywhere pins the unified error shape: even responses
// the mux writes itself (404 unknown path, 405 method mismatch) leave as
// {"error": ...} JSON.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	_, ts := testServer(t, 8)
	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/no/such/path", http.StatusNotFound},
		{"GET", "/route", http.StatusMethodNotAllowed},
		{"POST", "/stats", http.StatusMethodNotAllowed},
		{"POST", "/analyze/divergence", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s %s: content type %q, want application/json", tc.method, tc.path, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s %s: body not the JSON envelope: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if e.Error == "" {
			t.Fatalf("%s %s: empty error message", tc.method, tc.path)
		}
	}
}
