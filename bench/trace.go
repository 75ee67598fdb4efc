package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the harness's side of
// the boundary. Spans of one request share Req; Parent names the span that
// caused this one (0: none). The depth replays — the same call made again
// on the twin service or the shadow engine after the reply came back — are
// spans too: they carry the request's id and their causal parent, but their
// wall-clock interval lies after the request, so self time is computed from
// durations, not from interval overlap.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and boundary counts in memory until the run ends.
type tracer struct {
	next atomic.Int64

	// curReq is the traced request the middleware is serving; the traced
	// client sends one at a time, so a span recorded deeper in the server
	// (the WAL hook) reads its request id here.
	curReq atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{counts: map[string]float64{}} }

// serverIDs is where the traced server process starts numbering the spans
// it originates itself, clear of every id the harness hands out.
const serverIDs = 1 << 40

// block reserves k consecutive span ids and returns the first. A traced
// request reserves the ids of its whole span tree up front, so the server
// middleware can derive its own id from the client's (client+1) without a
// reply channel.
func (t *tracer) block(k int64) int64 { return t.next.Add(k) - k + 1 }

func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	// Wall-clock start, so spans of the two processes line up in the
	// file; monotonic duration, so a clock step cannot bend a span.
	t.spans = append(t.spans, span{id, parent, req, name, start.UnixNano(), start.UnixNano() + end.Sub(start).Nanoseconds()})
	t.mu.Unlock()
}

// time runs f as the span (id, parent, req, name) and returns how long it took.
func (t *tracer) time(id, parent, req int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(id, parent, req, name, start, end)
	return end.Sub(start)
}

// once times a call that belongs to no request (a boot stage, a build).
func (t *tracer) once(name string, f func()) time.Duration {
	return t.time(t.block(1), 0, 0, name, f)
}

func (t *tracer) count(name string, delta float64) {
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// middleware records the span around the service's own handler for every
// request that carries trace headers; its parent is the client span.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		if req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		t.curReq.Store(req)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(parent+1, parent, req, "service.http."+strings.TrimPrefix(r.URL.Path, "/"), start, time.Now())
	})
}

// durations groups span durations (µs) by span name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/float64(time.Microsecond))
	}
	return out
}

// selfTimes computes, per span, its duration minus the part its children
// cover (children of a span run one after another, so their cover is the
// sum of their durations, capped at the parent's), grouped by span name,
// in µs.
func (t *tracer) selfTimes() map[string][]float64 {
	covered := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		self := s.dur() - min(s.dur(), covered[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/float64(time.Microsecond))
	}
	return out
}

// merge reads a trace file written by another process into t.
func (t *tracer) merge(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var line struct {
			span
			Count string  `json:"count"`
			Value float64 `json:"value"`
		}
		if err := dec.Decode(&line); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if line.Count != "" {
			t.count(line.Count, line.Value)
		} else {
			t.mu.Lock()
			t.spans = append(t.spans, line.span)
			t.mu.Unlock()
		}
	}
	return nil
}

// write dumps the spans, then the counts, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	names := make([]string, 0, len(t.counts))
	for name := range t.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := enc.Encode(map[string]any{"count": name, "value": t.counts[name]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
