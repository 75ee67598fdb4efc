package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testServer(t *testing.T, n int) (*Service, *httptest.Server) {
	t.Helper()
	svc := testService(t, n, Options{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func getJSON(t *testing.T, url string, wantStatus int, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url string, body any, wantStatus int, dst any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	svc, ts := testServer(t, 72)

	var health struct {
		Status  string `json:"status"`
		Version uint64 `json:"version"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Version != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	var route RouteResponse
	postJSON(t, ts.URL+"/route", RouteRequest{Src: 0, Dst: 9}, http.StatusOK, &route)
	if !route.Delivered || len(route.Path) < 2 || route.Version != 1 {
		t.Fatalf("route = %+v", route)
	}
	if route.Hops != len(route.Path)-1 {
		t.Fatalf("hops %d vs path %v", route.Hops, route.Path)
	}
	// Same query again: served from cache.
	postJSON(t, ts.URL+"/route", RouteRequest{Src: 0, Dst: 9}, http.StatusOK, &route)
	if !route.Cached {
		t.Fatalf("repeat route not cached: %+v", route)
	}
	// Scheme selection and validation.
	postJSON(t, ts.URL+"/route", RouteRequest{Scheme: "greedy", Src: 0, Dst: 9}, http.StatusOK, &route)
	postJSON(t, ts.URL+"/route", RouteRequest{Scheme: "warp", Src: 0, Dst: 9}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/route", RouteRequest{Src: 0, Dst: 100000}, http.StatusNotFound, nil)

	var nbrs NeighborsResponse
	getJSON(t, ts.URL+"/node/5/neighbors", http.StatusOK, &nbrs)
	if nbrs.ID != 5 || nbrs.Degree != len(nbrs.Neighbors) || len(nbrs.Point) != 2 {
		t.Fatalf("neighbors = %+v", nbrs)
	}
	getJSON(t, ts.URL+"/node/99999/neighbors", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/node/banana/neighbors", http.StatusBadRequest, nil)

	var stats Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &stats)
	if stats.Nodes != 72 || stats.Version != 1 || stats.Routes == 0 {
		t.Fatalf("stats = %+v", stats)
	}

	// Mutate over the wire, observe the version bump and the departure.
	var mres MutateResult
	postJSON(t, ts.URL+"/mutate", MutateRequest{Ops: []Op{
		{Kind: OpJoin, Point: []float64{stats.BBoxHi[0] / 2, stats.BBoxHi[1] / 2}},
		{Kind: OpLeave, ID: 9},
	}}, http.StatusOK, &mres)
	if mres.Applied != 2 || mres.Version != 2 {
		t.Fatalf("mutate = %+v", mres)
	}
	postJSON(t, ts.URL+"/route", RouteRequest{Src: 0, Dst: 9}, http.StatusNotFound, nil)
	if svc.Snapshot().Version != 2 {
		t.Fatalf("service version = %d", svc.Snapshot().Version)
	}

	// Malformed bodies are 400s, not 500s.
	resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	postJSON(t, ts.URL+"/mutate", MutateRequest{}, http.StatusBadRequest, nil)

	// Wrong method on a defined path.
	resp, err = http.Get(ts.URL + "/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /route: status %d", resp.StatusCode)
	}
}

func TestHTTPRouteStretchWithinBound(t *testing.T) {
	_, ts := testServer(t, 64)
	for dst := 1; dst < 20; dst++ {
		var route RouteResponse
		postJSON(t, ts.URL+"/route", RouteRequest{Src: 0, Dst: dst}, http.StatusOK, &route)
		if route.Delivered && route.Stretch > 1.5+1e-9 {
			t.Fatalf("dst %d: stretch %v over the wire exceeds bound", dst, route.Stretch)
		}
	}
	// Exercise the JSON round-trip of stats numbers.
	var stats Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &stats)
	if stats.StretchEstimate < 1 {
		t.Fatalf("stats stretch estimate = %v", stats.StretchEstimate)
	}
	_ = fmt.Sprintf("%+v", stats)
}

// TestTrailingDataRejected pins that a JSON body is exactly one value:
// each endpoint answers its bare body (trailing whitespace allowed) with
// 200, and the same body followed by junk or by a second value with 400 and
// the error envelope.
func TestTrailingDataRejected(t *testing.T) {
	svc := testService(t, 32, Options{})
	h := svc.Handler()
	for _, tc := range []struct{ path, body string }{
		{"/route", `{"src":0,"dst":1}`},
		{"/distance", `{"src":0,"dst":1}`},
		{"/mutate", `{"ops":[{"op":"move","id":5,"point":[1,1]}]}`},
		{"/analyze/impact", `{"vertices":[3]}`},
		{"/analyze/around", `{"center":0,"hops":1}`},
		{"/analyze/route", `{"src":0,"dst":1}`},
	} {
		for _, c := range []struct {
			suffix string
			want   int
		}{
			{" \n\t", http.StatusOK},
			{" junk", http.StatusBadRequest},
			{`{"src":5}`, http.StatusBadRequest},
			{tc.body, http.StatusBadRequest},
			{"}", http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body+c.suffix)))
			if rec.Code != c.want {
				t.Fatalf("POST %s %q: status %d, want %d (%s)", tc.path, tc.body+c.suffix, rec.Code, c.want, rec.Body)
			}
			if c.want == http.StatusOK {
				continue
			}
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("POST %s %q: body %q is not the error envelope", tc.path, tc.body+c.suffix, rec.Body)
			}
		}
	}
}

// TestWriteJSONUnencodable pins the 500 a value JSON cannot encode (a NaN
// that slipped into a reply) turns into: one error envelope carrying the
// marshal error once, not a JSON string wrapped in a second envelope.
func TestWriteJSONUnencodable(t *testing.T) {
	h := errorEnvelope(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, math.NaN())
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	if want := "json: unsupported value: NaN"; e.Error != want {
		t.Fatalf("error %q, want %q", e.Error, want)
	}
}
