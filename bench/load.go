package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"topoctl/internal/service"
)

// maxConns is the most connections the harness keeps in flight: the
// sandbox has two cores and the daemon needs one of them.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: maxConns, MaxIdleConnsPerHost: maxConns, MaxConnsPerHost: maxConns},
		Timeout:   30 * time.Second,
	}
}

// Trace headers: the traced run's client names the request and its own
// span so the server-side middleware can parent its span under it.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// post sends one JSON request and drains the reply into buf (reset
// first). It reports the status; the caller times around it. Timed
// callers look at the status only — bodies are decoded after the clock
// has stopped.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer, req, span int64) (int, error) {
	r, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	r.Header.Set("Content-Type", "application/json")
	if req != 0 {
		r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
	}
	resp, err := c.Do(r)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// sample is one completed read: when it was sent (since the phase began),
// how long it took, and whether it was a /distance.
type sample struct {
	start time.Duration
	lat   time.Duration
	dist  bool
}

// reply is a response kept for the untimed verification pass.
type reply struct {
	q    query
	body []byte
}

// clientStream is one closed-loop client's request stream. It is told how
// far into the phase the request is being sent, so a phase can alternate
// between request kinds by the clock.
type clientStream func(elapsed time.Duration) query

// readPhase is the raw outcome of one closed-loop read phase: an untimed
// warm-up, then timed slices of equal length (one slice spanning the rest
// of the phase when slice is 0).
type readPhase struct {
	warm, total, slice time.Duration
	samples            []sample
	replies            []reply
	attempted          int
	failed             int
}

// runReadPhase drives len(streams) closed-loop clients (each waits for its
// reply before sending the next request) against base for total, of which
// the first warm is not timed. keep bounds the replies retained for
// verification by reservoir sampling per client (keep < 0 retains every
// reply).
func runReadPhase(c *http.Client, base string, streams []clientStream, warm, total, slice time.Duration, keep int, seed int64) *readPhase {
	ph := &readPhase{warm: warm, total: total, slice: slice}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for ci, stream := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			rng := rand.New(rand.NewSource(seed + int64(ci)))
			perClient := keep / len(streams)
			var kept []reply
			var mine []sample
			attempted, failed := 0, 0
			for {
				elapsed := time.Since(start)
				if elapsed >= total {
					break
				}
				q := stream(elapsed)
				body := q.body()
				t0 := time.Now()
				status, err := post(c, base+q.path(), body, &buf, 0, 0)
				lat := time.Since(t0)
				attempted++
				if err != nil || status != http.StatusOK {
					failed++
					continue
				}
				if elapsed < warm {
					continue
				}
				mine = append(mine, sample{start: elapsed, lat: lat, dist: q.dist})
				// Reservoir sampling: every timed reply is equally likely
				// to be among the ones verified.
				switch {
				case keep < 0 || len(kept) < perClient:
					kept = append(kept, reply{q, bytes.Clone(buf.Bytes())})
				default:
					if j := rng.Intn(len(mine)); j < perClient {
						kept[j] = reply{q, bytes.Clone(buf.Bytes())}
					}
				}
			}
			mu.Lock()
			ph.samples = append(ph.samples, mine...)
			ph.replies = append(ph.replies, kept...)
			ph.attempted += attempted
			ph.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ph
}

// A read phase reports its best window (see best): rate and median latency
// are taken over short windows so that a quiet spell of the host, which can
// be well under a second long, fills some window. A window is shortWindow
// long unless the request kind is too slow to put windowSamples requests in
// one, in which case it is as long as that takes — the median of a few
// hundred compute-bound requests says more about which queries the window
// drew than about the system.
const (
	shortWindow   = 250 * time.Millisecond
	windowSamples = 2000
)

// readStats are the figures of one request kind in a read phase. Rate and
// median latency are per window, reported as the best window; the p99 is
// taken over every timed request of the kind.
type readStats struct {
	qps, p50us summary
	p99us      float64
	// p99q is the quantile actually reported as the p99 (lower when the
	// phase had too few samples to leave ten beyond it).
	p99q float64
	n    int
}

// stats summarizes the timed requests of one kind (dist selects
// /distance). The slices in which the kind was sent are cut into equal
// windows; a request belongs to the window it was sent in.
func (ph *readPhase) stats(dist bool) readStats {
	slice := ph.slice
	if slice == 0 {
		slice = ph.total - ph.warm
	}
	bySlice := map[int][]sample{}
	var all []float64
	for _, s := range ph.samples {
		if s.dist == dist {
			i := int((s.start - ph.warm) / slice)
			bySlice[i] = append(bySlice[i], s)
			all = append(all, float64(s.lat)/float64(time.Microsecond))
		}
	}
	if len(all) == 0 {
		return readStats{}
	}
	// Windows per slice: as many of at least shortWindow, holding about
	// windowSamples requests each at the rate observed, as fit.
	rate := float64(len(all)) / (float64(len(bySlice)) * slice.Seconds())
	per := max(1, int(slice.Seconds()/max(shortWindow.Seconds(), windowSamples/rate)))
	window := slice / time.Duration(per)
	var qps, p50 []float64
	for i, ss := range bySlice {
		lats := make([][]float64, per)
		for _, s := range ss {
			w := min(int((s.start-ph.warm-time.Duration(i)*slice)/window), per-1)
			lats[w] = append(lats[w], float64(s.lat)/float64(time.Microsecond))
		}
		for w, l := range lats {
			// A window the phase ended in the middle of is not a window.
			if end := ph.warm + time.Duration(i)*slice + time.Duration(w+1)*window; end > ph.total || len(l) == 0 {
				continue
			}
			sort.Float64s(l)
			qps = append(qps, float64(len(l))/window.Seconds())
			p50 = append(p50, percentile(l, 0.5))
		}
	}
	sort.Float64s(all)
	rs := readStats{qps: best(qps, false), p50us: best(p50, true), n: len(all)}
	rs.p99us, rs.p99q = tail(all, 0.99)
	return rs
}

// mutateBody renders a /mutate request.
func mutateBody(ops []service.Op) []byte {
	body, _ := json.Marshal(service.MutateRequest{Ops: ops}) // strings and finite numbers: cannot fail
	return body
}

// mutateRun is the outcome of the open-loop writer.
type mutateRun struct {
	// latMs is ack time minus due time per batch, in schedule order.
	latMs []float64
	// lateMs is send time minus due time per batch: how far the generator
	// itself ran behind its schedule (it has one connection, so a stalled
	// ack delays every later send — which the due-time clock charges).
	lateMs  []float64
	results []service.MutateResult
	// elapsed is first due time to last acknowledgement.
	elapsed   time.Duration
	attempted int
	failed    int
}

// runMutator sends the batches open-loop: batch i is due at i×period
// after start regardless of how the previous ones fared, and its latency
// runs from that due time, so a writer stall is charged to every batch
// queued behind it. Replies are decoded after the clock stops for that
// batch (the decode is not on any timed path).
func runMutator(c *http.Client, base string, batches [][]service.Op, period time.Duration) *mutateRun {
	run := &mutateRun{}
	bodies := make([][]byte, len(batches))
	for i, ops := range batches {
		bodies[i] = mutateBody(ops)
	}
	var buf bytes.Buffer
	start := time.Now()
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		status, err := post(c, base+"/mutate", body, &buf, 0, 0)
		acked := time.Now()
		run.attempted++
		var res service.MutateResult
		if err != nil || status != http.StatusOK || json.Unmarshal(buf.Bytes(), &res) != nil || res.Applied != len(batches[i]) {
			run.failed++
			continue
		}
		run.latMs = append(run.latMs, float64(acked.Sub(due))/float64(time.Millisecond))
		run.lateMs = append(run.lateMs, float64(sent.Sub(due))/float64(time.Millisecond))
		run.results = append(run.results, res)
		run.elapsed = acked.Sub(start)
	}
	return run
}

// mutateWindow is how many consecutive batches make one window of the
// writer's run (4 s at mutateHz): enough for a median, short enough that a
// run holds several and one of them meets the host in its fast mode.
const mutateWindow = 40

// windowP50 is the median batch latency of each whole window of the run, in
// schedule order, reported as the best window (see best). A run shorter than
// one window is one window.
func (m *mutateRun) windowP50() summary {
	var meds []float64
	for i := 0; i+mutateWindow <= len(m.latMs); i += mutateWindow {
		meds = append(meds, median(m.latMs[i:i+mutateWindow]))
	}
	if len(meds) == 0 {
		meds = []float64{median(m.latMs)}
	}
	return best(meds, true)
}

// p50p95 returns the median and the supported tail of the batch latencies.
func (m *mutateRun) p50p95() (p50, p95, reported float64) {
	s := append([]float64(nil), m.latMs...)
	sort.Float64s(s)
	p95, reported = tail(s, 0.95)
	return percentile(s, 0.5), p95, reported
}

func (m *mutateRun) lastVersion() (uint64, error) {
	if len(m.results) == 0 {
		return 0, fmt.Errorf("no mutation batch was acknowledged")
	}
	return m.results[len(m.results)-1].Version, nil
}
