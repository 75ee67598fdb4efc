package service

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topoctl/internal/analyze"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// TestConcurrentMutateWhileAnalyze is the /analyze counterpart of the
// route stress test: reader goroutines fire all four analysis queries
// while a live mutator streams batches through the writer. Every response
// must be certified against the exact snapshot that served it — version
// stamp, counts consistent with that snapshot's liveness, returned
// subgraphs and paths present in that snapshot's graphs — which is only
// possible if an analysis never observes a half-swapped topology. Run
// under -race this also exercises the parallel fan-out inside a query
// against the shared searcher pool.
func TestConcurrentMutateWhileAnalyze(t *testing.T) {
	const (
		readers  = 6
		nInitial = 120
		batches  = 60
	)
	svc := testService(t, nInitial, Options{CacheSize: 1024})

	var (
		stop     atomic.Bool
		analyzed atomic.Uint64
		wg       sync.WaitGroup
	)
	fail := make(chan error, readers+1)

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
				var err error
				switch rng.Intn(4) {
				case 0:
					err = certifyImpact(snap, src)
				case 1:
					err = certifyAround(snap, src, 1+rng.Intn(3))
				case 2:
					err = certifyExplain(snap, src, dst)
				default:
					err = certifyDivergence(snap)
				}
				if err != nil {
					fail <- err
					return
				}
				analyzed.Add(1)
			}
		}(int64(4000 + r))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		rng := rand.New(rand.NewSource(55))
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
			ops := make([]Op, 0, 6)
			for k := rng.Intn(5) + 1; k > 0; k-- {
				switch x := rng.Float64(); {
				case x < 0.35:
					ops = append(ops, Op{Kind: OpJoin, Point: randPoint()})
				case x < 0.60 && cur.Live() > nInitial/2:
					if id, _, ok := twoLive(rng, cur.Alive); ok {
						ops = append(ops, Op{Kind: OpLeave, ID: id})
					}
				default:
					if id, _, ok := twoLive(rng, cur.Alive); ok {
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
			// Pace on reader progress so analyses genuinely interleave
			// with snapshot swaps.
			for analyzed.Load() < uint64((b+1)*4) && time.Now().Before(deadline) {
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
	if analyzed.Load() == 0 {
		t.Fatal("stress test certified no analyses")
	}
	t.Logf("certified %d analyses across %d topology versions",
		analyzed.Load(), svc.Snapshot().Version)
}

func certifyImpact(snap *Snapshot, victim int) error {
	res, err := snap.AnalyzeImpact(analyze.ImpactRequest{Vertices: []int{victim}})
	if err != nil {
		return fmt.Errorf("impact(%d) on v%d: %w", victim, snap.Version, err)
	}
	if res.Version != snap.Version {
		return fmt.Errorf("impact version %d from snapshot %d", res.Version, snap.Version)
	}
	if res.FaultedCount != 1 || res.Faulted[0] != victim {
		return fmt.Errorf("v%d: impact faulted %v, want [%d]", snap.Version, res.Faulted, victim)
	}
	if res.Survivors != snap.Live()-1 {
		return fmt.Errorf("v%d: impact survivors %d, live %d", snap.Version, res.Survivors, snap.Live())
	}
	for _, x := range res.Unreachable {
		if x < 0 || x >= len(snap.Alive) || !snap.Alive[x] || x == victim {
			return fmt.Errorf("v%d: unreachable lists %d, not a survivor", snap.Version, x)
		}
	}
	return nil
}

func certifyAround(snap *Snapshot, center, hops int) error {
	res, err := snap.AnalyzeAround(analyze.AroundRequest{Center: center, Hops: hops})
	if err != nil {
		return fmt.Errorf("around(%d,%d) on v%d: %w", center, hops, snap.Version, err)
	}
	if res.Version != snap.Version {
		return fmt.Errorf("around version %d from snapshot %d", res.Version, snap.Version)
	}
	for _, n := range res.Elements.Nodes {
		if n.Data.Vertex < 0 || n.Data.Vertex >= len(snap.Alive) || !snap.Alive[n.Data.Vertex] {
			return fmt.Errorf("v%d: around returned dead vertex %d", snap.Version, n.Data.Vertex)
		}
	}
	for _, e := range res.Elements.Edges {
		var u, v int
		if _, err := fmt.Sscanf(e.Data.Source, "n%d", &u); err != nil {
			return fmt.Errorf("v%d: bad source id %q", snap.Version, e.Data.Source)
		}
		if _, err := fmt.Sscanf(e.Data.Target, "n%d", &v); err != nil {
			return fmt.Errorf("v%d: bad target id %q", snap.Version, e.Data.Target)
		}
		w, ok := snap.Spanner.EdgeWeight(u, v)
		if !ok || w != e.Data.Weight {
			return fmt.Errorf("v%d: around edge %d-%d weight %v not in snapshot spanner (%v, %v)",
				snap.Version, u, v, e.Data.Weight, w, ok)
		}
	}
	return nil
}

func certifyExplain(snap *Snapshot, src, dst int) error {
	res, err := snap.AnalyzeRoute(AnalyzeRouteRequest{Src: src, Dst: dst})
	if err != nil {
		return fmt.Errorf("explain(%d,%d) on v%d: %w", src, dst, snap.Version, err)
	}
	if res.Version != snap.Version {
		return fmt.Errorf("explain version %d from snapshot %d", res.Version, snap.Version)
	}
	if !res.Reachable {
		return nil
	}
	vertices := []int{src}
	for _, h := range res.Path {
		if h.From != vertices[len(vertices)-1] {
			return fmt.Errorf("v%d: hop chain broken at %+v", snap.Version, h)
		}
		vertices = append(vertices, h.To)
	}
	if vertices[len(vertices)-1] != dst {
		return fmt.Errorf("v%d: path %v does not end at %d", snap.Version, vertices, dst)
	}
	w, ok := graph.PathWeight(snap.Spanner, vertices)
	if !ok || math.Abs(w-res.SpannerCost) > 1e-9*(1+res.SpannerCost) {
		return fmt.Errorf("v%d: explained path %v invalid on its snapshot (weight %v ok=%v, cost %v)",
			snap.Version, vertices, w, ok, res.SpannerCost)
	}
	return nil
}

// certifyDivergence also races the readers on the snapshot's memoized
// /stats probe: each must see the probe the divergence report runs at the
// default sample and seed Options.Seed (0 here) + version.
func certifyDivergence(snap *Snapshot) error {
	res, err := snap.AnalyzeDivergence(analyze.DivergenceRequest{Seed: int64(snap.Version)})
	if err != nil {
		return fmt.Errorf("divergence on v%d: %w", snap.Version, err)
	}
	if res.Version != snap.Version {
		return fmt.Errorf("divergence version %d from snapshot %d", res.Version, snap.Version)
	}
	if res.BaseEdges != snap.Base.M() || res.SpannerEdges != snap.Spanner.M() {
		return fmt.Errorf("v%d: divergence counts %d/%d, snapshot %d/%d",
			snap.Version, res.BaseEdges, res.SpannerEdges, snap.Base.M(), snap.Spanner.M())
	}
	if worst, _ := snap.stretchProbe().Worst(); worst != res.WorstStretch {
		return fmt.Errorf("v%d: /stats probe worst %v, divergence worst %v", snap.Version, worst, res.WorstStretch)
	}
	return nil
}
