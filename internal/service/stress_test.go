package service

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/routing"
)

// TestConcurrentMutateWhileRoute is the torn-read detector: ≥8 reader
// goroutines route continuously while a live mutator streams join / leave /
// move batches through the writer. Every delivered route must be valid on
// the exact snapshot that served it — path edges present in that
// snapshot's spanner, cost equal to the path weight, shortest-path stretch
// within the bound — which is only possible if readers never observe a
// half-swapped topology. Run under -race this also puts the atomic
// snapshot swap, the shared searcher pool, and the sharded cache under the
// detector.
func TestConcurrentMutateWhileRoute(t *testing.T) {
	runMutateWhileRoute(t, Options{CacheSize: 1024})
}

func runMutateWhileRoute(t *testing.T, opts Options) {
	const (
		readers  = 8
		nInitial = 160
		batches  = 120
	)
	svc := testService(t, nInitial, opts)

	var (
		stop      atomic.Bool
		delivered atomic.Uint64
		validated atomic.Uint64
		wg        sync.WaitGroup
	)
	fail := make(chan error, readers+1)
	schemes := []routing.Scheme{routing.SchemeShortestPath, routing.SchemeGreedy, routing.SchemeCompass}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				snap := svc.Snapshot()
				src, dst, ok := twoLive(rng, snap.Alive)
				if !ok {
					continue
				}
				scheme := schemes[rng.Intn(len(schemes))]
				res, err := snap.Route(scheme, src, dst)
				if err != nil {
					fail <- fmt.Errorf("route(%v,%d,%d) on v%d: %w", scheme, src, dst, snap.Version, err)
					return
				}
				if res.Version != snap.Version {
					fail <- fmt.Errorf("result version %d from snapshot %d", res.Version, snap.Version)
					return
				}
				if !res.Route.Delivered {
					continue
				}
				delivered.Add(1)
				p := res.Route.Path
				if p[0] != src || p[len(p)-1] != dst {
					fail <- fmt.Errorf("path %v does not span (%d,%d)", p, src, dst)
					return
				}
				w, okW := graph.PathWeight(snap.Spanner, p)
				if !okW || math.Abs(w-res.Route.Cost) > 1e-9 {
					fail <- fmt.Errorf("v%d: path %v invalid on its snapshot (weight %v ok=%v, cost %v)",
						snap.Version, p, w, okW, res.Route.Cost)
					return
				}
				if scheme == routing.SchemeShortestPath && res.Stretch > snap.T+1e-9 {
					fail <- fmt.Errorf("v%d: shortest-path stretch %v exceeds bound %v", snap.Version, res.Stretch, snap.T)
					return
				}
				validated.Add(1)
			}
		}(int64(1000 + r))
	}

	// The live mutator: mixed batches, including ops that are expected to
	// fail (double leaves), exercising the best-effort batch path. It
	// paces itself on reader progress (a few validated routes per batch)
	// so routing genuinely interleaves with swaps even on one CPU.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		rng := rand.New(rand.NewSource(77))
		deadline := time.Now().Add(30 * time.Second)
		snap := svc.Snapshot()
		lo, hi := snap.bboxLo, snap.bboxHi
		randPoint := func() geom.Point {
			return geom.Point{
				lo[0] + rng.Float64()*(hi[0]-lo[0]),
				lo[1] + rng.Float64()*(hi[1]-lo[1]),
			}
		}
		for b := 0; b < batches; b++ {
			cur := svc.Snapshot()
			ops := make([]Op, 0, 8)
			for k := rng.Intn(7) + 1; k > 0; k-- {
				switch x := rng.Float64(); {
				case x < 0.30:
					ops = append(ops, Op{Kind: OpJoin, Point: randPoint()})
				case x < 0.55 && cur.Live() > nInitial/2:
					id, _, ok := twoLive(rng, cur.Alive)
					if ok {
						ops = append(ops, Op{Kind: OpLeave, ID: id})
					}
				default:
					id, _, ok := twoLive(rng, cur.Alive)
					if ok {
						ops = append(ops, Op{Kind: OpMove, ID: id, Point: randPoint()})
					}
				}
			}
			if len(ops) == 0 {
				continue
			}
			if _, err := svc.Mutate(ops); err != nil {
				fail <- fmt.Errorf("mutate batch %d: %w", b, err)
				return
			}
			for validated.Load() < uint64((b+1)*20) && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if svc.Snapshot().Version < batches/2 {
		t.Fatalf("only reached version %d after %d batches", svc.Snapshot().Version, batches)
	}
	if validated.Load() == 0 || delivered.Load() == 0 {
		t.Fatal("stress test validated no routes")
	}
	t.Logf("validated %d routes (%d delivered) across %d topology versions",
		validated.Load(), delivered.Load(), svc.Snapshot().Version)
}

// twoLive draws two distinct live slots from an alive mask.
func twoLive(rng *rand.Rand, alive []bool) (int, int, bool) {
	pick := func() int {
		for try := 0; try < 64; try++ {
			id := rng.Intn(len(alive))
			if alive[id] {
				return id
			}
		}
		return -1
	}
	a, b := pick(), pick()
	if a < 0 || b < 0 || a == b {
		return 0, 0, false
	}
	return a, b, true
}
