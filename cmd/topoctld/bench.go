package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"topoctl/internal/service"
)

// benchFlags configures the load generator.
type benchFlags struct {
	addr     string
	self     bool
	clients  int
	duration time.Duration
	zipfS    float64
	scheme   string
	mutate   int
	mutBatch int
}

// cmdBench is the ad-hoc load driver for an already-running daemon (or,
// with -self, a throwaway in-process one): point it at a deployment to see
// QPS, latency percentiles and cache behaviour while poking at it. Numbers
// of record come from the bench/ module (BENCHMARK.json), not from here.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	bf := &benchFlags{}
	fs.StringVar(&bf.addr, "addr", "http://127.0.0.1:7077", "base URL of the daemon to drive")
	fs.BoolVar(&bf.self, "self", false, "start an in-process daemon on a loopback port and drive that")
	fs.IntVar(&bf.clients, "clients", 32, "concurrent clients")
	fs.DurationVar(&bf.duration, "duration", 5*time.Second, "measurement window")
	fs.Float64Var(&bf.zipfS, "zipf", 1.2, "zipf skew of the src/dst mix (> 1)")
	fs.StringVar(&bf.scheme, "scheme", "shortest-path", "forwarding scheme to request")
	fs.IntVar(&bf.mutate, "mutate", 0, "background churn rate in ops/sec through /mutate (0 = read-only)")
	fs.IntVar(&bf.mutBatch, "mutate-batch", 4, "ops per background mutation batch")
	pprofAddr := fs.String("pprof", "", "pprof side-listener address for the in-process daemon (-self); empty disables profiling")
	sf := addServeFlags(fs) // -n, -t, ... honored with -self
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startPprof(*pprofAddr); err != nil {
		return err
	}
	if _, err := service.ParseScheme(bf.scheme); err != nil {
		return err
	}
	if bf.zipfS <= 1 {
		return fmt.Errorf("-zipf %v: skew must exceed 1", bf.zipfS)
	}

	base := bf.addr
	if bf.self {
		svc, err := sf.newService()
		if err != nil {
			return err
		}
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := newHTTPServer(svc.Handler())
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		log.Printf("self-hosted daemon on %s", base)
	}
	return runBench(bf, base)
}

// benchStats is the subset of /stats the generator needs: deployment shape
// up front, server-side cache counters before/after the window so the
// summary can report the cache behaviour this run induced (the server
// counters are lifetime aggregates; the delta isolates this window).
type benchStats struct {
	Nodes          int       `json:"nodes"`
	Slots          int       `json:"slots"`
	BBoxLo         []float64 `json:"bbox_lo"`
	BBoxHi         []float64 `json:"bbox_hi"`
	CacheHits      uint64    `json:"cache_hits"`
	CacheMisses    uint64    `json:"cache_misses"`
	CacheEvictions uint64    `json:"cache_evictions"`

	// Stretch fields of the post-window snapshot, for the summary line
	// (computing the estimate is the server's first /stats touch on that
	// snapshot; at a million edges it is sampled, never exact).
	StretchBound          float64 `json:"stretch_bound"`
	StretchEstimate       float64 `json:"stretch_estimate"`
	StretchExact          bool    `json:"stretch_exact"`
	StretchSampled        int     `json:"stretch_sampled"`
	StretchViolationBound float64 `json:"stretch_violation_bound"`
	StretchConfidence     float64 `json:"stretch_confidence"`
}

func runBench(bf *benchFlags, base string) error {
	tr := &http.Transport{
		MaxIdleConns:        bf.clients * 2,
		MaxIdleConnsPerHost: bf.clients * 2,
	}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}

	var st benchStats
	if err := getStats(client, base, &st); err != nil {
		return fmt.Errorf("daemon not reachable at %s: %w", base, err)
	}
	if st.Slots < 2 {
		return fmt.Errorf("daemon serves %d slots; nothing to route", st.Slots)
	}
	log.Printf("driving %s: %d nodes (%d slots), %d clients, zipf %.2f, %v window, churn %d ops/s",
		base, st.Nodes, st.Slots, bf.clients, bf.zipfS, bf.duration, bf.mutate)

	var (
		wg        sync.WaitGroup
		stopFlag  atomic.Bool
		requests  atomic.Uint64
		delivered atomic.Uint64
		cached    atomic.Uint64
		rejected  atomic.Uint64 // 404: zipf drew a departed slot
		failures  atomic.Uint64
		mutations atomic.Uint64
	)
	lats := make([][]time.Duration, bf.clients)

	// Optional background churn: move-only batches keep the node count
	// stable while forcing continuous snapshot swaps.
	if bf.mutate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(999))
			interval := time.Duration(float64(bf.mutBatch) / float64(bf.mutate) * float64(time.Second))
			if interval <= 0 {
				interval = time.Millisecond
			}
			// Pace from each batch's due time, not from when its synchronous
			// POST returned: sleeping a full interval after the reply would
			// stretch the period by the /mutate latency and under-deliver.
			next := time.Now()
			for !stopFlag.Load() {
				ops := make([]service.Op, bf.mutBatch)
				for i := range ops {
					p := make([]float64, len(st.BBoxLo))
					for d := range p {
						p[d] = st.BBoxLo[d] + rng.Float64()*(st.BBoxHi[d]-st.BBoxLo[d])
					}
					ops[i] = service.Op{Kind: service.OpMove, ID: rng.Intn(st.Slots), Point: p}
				}
				body, _ := json.Marshal(service.MutateRequest{Ops: ops})
				resp, err := client.Post(base+"/mutate", "application/json", bytes.NewReader(body))
				if err == nil {
					var mres service.MutateResult
					if resp.StatusCode == http.StatusOK &&
						json.NewDecoder(resp.Body).Decode(&mres) == nil {
						mutations.Add(uint64(mres.Applied))
					}
					io.Copy(io.Discard, resp.Body) // keep the connection reusable
					resp.Body.Close()
				}
				next = next.Add(interval)
				time.Sleep(time.Until(next))
			}
		}()
	}

	start := time.Now()
	for c := 0; c < bf.clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + id)))
			zipf := rand.NewZipf(rng, bf.zipfS, 1, uint64(st.Slots-1))
			buf := make([]byte, 0, 128)
			mine := make([]time.Duration, 0, 1<<15)
			for !stopFlag.Load() {
				src, dst := int(zipf.Uint64()), int(zipf.Uint64())
				if src == dst {
					dst = (dst + 1) % st.Slots
				}
				buf = buf[:0]
				buf = fmt.Appendf(buf, `{"scheme":%q,"src":%d,"dst":%d}`, bf.scheme, src, dst)
				t0 := time.Now()
				resp, err := client.Post(base+"/route", "application/json", bytes.NewReader(buf))
				if err != nil {
					failures.Add(1)
					continue
				}
				var rr service.RouteResponse
				decErr := json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				lat := time.Since(t0)
				requests.Add(1)
				switch {
				case resp.StatusCode == http.StatusOK && decErr == nil:
					mine = append(mine, lat)
					if rr.Delivered {
						delivered.Add(1)
					}
					if rr.Cached {
						cached.Add(1)
					}
				case resp.StatusCode == http.StatusNotFound:
					rejected.Add(1)
				default:
					failures.Add(1)
				}
			}
			lats[id] = mine
		}(c)
	}

	time.Sleep(bf.duration)
	stopFlag.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no successful requests (failures: %d)", failures.Load())
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	total := requests.Load()
	qps := float64(total) / elapsed.Seconds()
	fmt.Printf("requests  %d in %v (%.0f QPS)\n", total, elapsed.Round(time.Millisecond), qps)
	fmt.Printf("latency   p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	fmt.Printf("delivered %d (%.1f%%), cache hits %d (%.1f%%), rejected %d, failures %d\n",
		delivered.Load(), 100*float64(delivered.Load())/float64(total),
		cached.Load(), 100*float64(cached.Load())/float64(total),
		rejected.Load(), failures.Load())
	var end benchStats
	if err := getStats(client, base, &end); err == nil {
		switch {
		case end.StretchEstimate < 0:
			fmt.Printf("stretch   disconnected spanner observed (bound t=%.3g)\n", end.StretchBound)
		case end.StretchExact:
			fmt.Printf("stretch   %.4f exact over all base edges (bound t=%.3g)\n",
				end.StretchEstimate, end.StretchBound)
		default:
			fmt.Printf("stretch   %.4f sampled over %d edges (bound t=%.3g; ≤%.2f%% of edges may exceed, %.0f%% confidence)\n",
				end.StretchEstimate, end.StretchSampled, end.StretchBound,
				100*end.StretchViolationBound, 100*end.StretchConfidence)
		}
		hits, misses := end.CacheHits-st.CacheHits, end.CacheMisses-st.CacheMisses
		ratio := 0.0
		if hits+misses > 0 {
			ratio = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Printf("cache     server-side: %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
			hits, misses, ratio, end.CacheEvictions-st.CacheEvictions)
	}
	if bf.mutate > 0 {
		applied := mutations.Load()
		achieved := float64(applied) / elapsed.Seconds()
		note := ""
		if achieved < 0.9*float64(bf.mutate) {
			note = "  UNDER-DELIVERED: the one synchronous mutator could not keep up"
		}
		fmt.Printf("churn     %d mutation ops applied: %.0f ops/s achieved of %d requested%s\n",
			applied, achieved, bf.mutate, note)
	}
	return nil
}

func getStats(client *http.Client, base string, dst *benchStats) error {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
