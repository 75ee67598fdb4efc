package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"topoctl/internal/analyze"
	"topoctl/internal/geom"
	"topoctl/internal/routing"
)

// RouteRequest is the POST /route body.
type RouteRequest struct {
	// Scheme is "shortest-path" (default), "greedy", or "compass".
	Scheme string `json:"scheme,omitempty"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
}

// RouteResponse is the POST /route reply.
type RouteResponse struct {
	Delivered bool    `json:"delivered"`
	Path      []int   `json:"path"`
	Cost      float64 `json:"cost"`
	Hops      int     `json:"hops"`
	Stretch   float64 `json:"stretch,omitempty"`
	Version   uint64  `json:"version"`
	Cached    bool    `json:"cached"`
}

// NeighborsResponse is the GET /node/{id}/neighbors reply.
type NeighborsResponse struct {
	ID         int        `json:"id"`
	Point      geom.Point `json:"point"`
	Degree     int        `json:"degree"`
	BaseDegree int        `json:"base_degree"`
	Neighbors  []Neighbor `json:"neighbors"`
	Version    uint64     `json:"version"`
}

// DistanceRequest is the POST /distance body.
type DistanceRequest struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// MutateRequest is the POST /mutate body.
type MutateRequest struct {
	Ops []Op `json:"ops"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// ParseScheme maps the wire name of a forwarding scheme to its constant
// ("" defaults to shortest-path).
func ParseScheme(name string) (routing.Scheme, error) {
	switch name {
	case "", "shortest-path", "shortest":
		return routing.SchemeShortestPath, nil
	case "greedy":
		return routing.SchemeGreedy, nil
	case "compass":
		return routing.SchemeCompass, nil
	default:
		return 0, fmt.Errorf("service: unknown scheme %q", name)
	}
}

// Handler returns the HTTP surface of the service:
//
//	GET  /healthz                  liveness (200 while the process serves)
//	GET  /readyz                   readiness (503 until the first snapshot)
//	GET  /stats                    topology + serving statistics
//	GET  /node/{id}/neighbors      a node's spanner adjacency
//	POST /route                    route one packet
//	POST /distance                 exact point-to-point distance (labels
//	                               when enabled, search fallback otherwise)
//	POST /mutate                   apply a mutation batch (leader only)
//	POST /analyze/impact           failure impact of a vertex set / region
//	POST /analyze/around           k-hop neighborhood (Cytoscape elements)
//	POST /analyze/route            route explanation vs the base optimum
//	GET  /analyze/divergence       spanner-vs-base divergence report
//
// Every handler resolves the current snapshot exactly once, so each
// response is consistent with a single topology version (reported as
// "version" in the body).
//
// Every non-2xx response — including the mux's own 404/405, which the
// returned handler intercepts — carries the JSON error envelope
// {"error": "..."}.
//
// Liveness and readiness are distinct on purpose: a follower that lost
// its leader is alive (keep it in the process pool, let it keep serving
// its last topology) but a follower that has never applied a frame — or
// a leader still replaying its WAL — must not receive traffic yet, which
// is what /readyz gates.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /node/{id}/neighbors", s.handleNeighbors)
	mux.HandleFunc("POST /route", s.handleRoute)
	mux.HandleFunc("POST /distance", s.handleDistance)
	mux.HandleFunc("POST /mutate", s.handleMutate)
	mux.HandleFunc("POST /analyze/impact", s.handleAnalyzeImpact)
	mux.HandleFunc("POST /analyze/around", s.handleAnalyzeAround)
	mux.HandleFunc("POST /analyze/route", s.handleAnalyzeRoute)
	mux.HandleFunc("GET /analyze/divergence", s.handleAnalyzeDivergence)
	return errorEnvelope(mux)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok", "ready": s.Ready()}
	if snap := s.Snapshot(); snap != nil {
		body["version"] = snap.Version
	}
	if repl := s.replicaStatus(); repl != nil {
		body["role"] = repl.Role
		body["replica"] = repl
	} else {
		body["role"] = "leader"
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "starting"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"version": s.Snapshot().Version,
	})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad node id: %w", err))
		return
	}
	snap := s.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, ErrNotReady)
		return
	}
	pt, nbrs, baseDeg, err := snap.Neighbors(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, NeighborsResponse{
		ID:         id,
		Point:      pt,
		Degree:     len(nbrs),
		BaseDegree: baseDeg,
		Neighbors:  nbrs,
		Version:    snap.Version,
	})
}

func (s *Service) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req RouteRequest
	if err := decodeJSON(w, r, 1<<16, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scheme, err := ParseScheme(req.Scheme)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.Route(scheme, req.Src, req.Dst)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, RouteResponse{
		Delivered: res.Route.Delivered,
		Path:      res.Route.Path,
		Cost:      res.Route.Cost,
		Hops:      res.Route.Hops(),
		Stretch:   res.Stretch,
		Version:   res.Version,
		Cached:    res.Cached,
	})
}

func (s *Service) handleDistance(w http.ResponseWriter, r *http.Request) {
	var req DistanceRequest
	if err := decodeJSON(w, r, 1<<16, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.Distance(req.Src, req.Dst)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	if err := decodeJSON(w, r, 8<<20, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := ValidateOps(req.Ops); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.Mutate(req.Ops)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleAnalyzeImpact(w http.ResponseWriter, r *http.Request) {
	var req analyze.ImpactRequest
	if err := decodeJSON(w, r, 1<<20, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap := s.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, ErrNotReady)
		return
	}
	res, err := snap.AnalyzeImpact(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleAnalyzeAround(w http.ResponseWriter, r *http.Request) {
	var req analyze.AroundRequest
	if err := decodeJSON(w, r, 1<<16, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap := s.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, ErrNotReady)
		return
	}
	res, err := snap.AnalyzeAround(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleAnalyzeRoute(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRouteRequest
	if err := decodeJSON(w, r, 1<<16, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	snap := s.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, ErrNotReady)
		return
	}
	res, err := snap.AnalyzeRoute(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleAnalyzeDivergence(w http.ResponseWriter, r *http.Request) {
	var req analyze.DivergenceRequest
	q := r.URL.Query()
	// A fixed order, so a request with several bad parameters always names
	// the same one.
	for _, p := range [...]struct {
		name string
		dst  *int
	}{{"sample", &req.Sample}, {"buckets", &req.Buckets}, {"witnesses", &req.MaxWitnesses}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", p.name, err))
				return
			}
			*p.dst = n
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed: %w", err))
			return
		}
		req.Seed = n
	}
	snap := s.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, ErrNotReady)
		return
	}
	res, err := snap.AnalyzeDivergence(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// statusFor maps service errors to HTTP statuses: unknown nodes and
// vertices are 404, malformed requests 400, not-yet-ready followers 503.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownNode), errors.Is(err, analyze.ErrUnknownVertex):
		return http.StatusNotFound
	case errors.Is(err, routing.ErrOutOfRange), errors.Is(err, ErrBadOp), errors.Is(err, analyze.ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrReadOnly), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorEnvelope wraps a handler so that every error response leaves as the
// JSON envelope, including responses the wrapped handler writes itself in
// another shape — notably the mux's own text/plain 404 and 405. Successful
// responses and errors already in the envelope pass through untouched.
func errorEnvelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ew := &envelopeWriter{rw: w}
		next.ServeHTTP(ew, r)
		ew.flush()
	})
}

// envelopeWriter intercepts non-JSON error responses: when WriteHeader
// announces a status >= 400 without an application/json content type, the
// header write is deferred and the body buffered, then flush rewrites it
// as an errorBody.
type envelopeWriter struct {
	rw          http.ResponseWriter
	status      int
	wroteHeader bool
	intercept   bool
	buf         bytes.Buffer
}

func (e *envelopeWriter) Header() http.Header { return e.rw.Header() }

func (e *envelopeWriter) WriteHeader(status int) {
	if e.wroteHeader {
		return
	}
	e.wroteHeader = true
	e.status = status
	if status >= 400 && !strings.HasPrefix(e.rw.Header().Get("Content-Type"), "application/json") {
		e.intercept = true
		return
	}
	e.rw.WriteHeader(status)
}

func (e *envelopeWriter) Write(b []byte) (int, error) {
	if !e.wroteHeader {
		e.WriteHeader(http.StatusOK)
	}
	if e.intercept {
		return e.buf.Write(b)
	}
	return e.rw.Write(b)
}

func (e *envelopeWriter) flush() {
	if !e.intercept {
		return
	}
	msg := strings.TrimSpace(e.buf.String())
	if msg == "" {
		msg = http.StatusText(e.status)
	}
	raw, err := json.Marshal(errorBody{Error: msg})
	if err != nil {
		raw = []byte(`{"error":"internal error"}`)
	}
	h := e.rw.Header()
	h.Set("Content-Type", "application/json")
	h.Del("Content-Length") // the rewritten body has a different length
	e.rw.WriteHeader(e.status)
	e.rw.Write(append(raw, '\n'))
}

// decodeJSON decodes exactly one JSON value from the request body: a
// second value or any other non-whitespace after the first is rejected, so
// `{"src":0,"dst":1} junk` never passes for `{"src":0,"dst":1}`.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: trailing data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	// Marshal before touching the ResponseWriter so an unencodable value
	// (the bug class: a NaN/Inf that slipped into a stats field) becomes a
	// diagnosable 500, not a silent 200 with an empty body.
	raw, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		raw, _ = json.Marshal(errorBody{Error: err.Error()}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(raw, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
