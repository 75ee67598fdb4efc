package graph_test

// Differential tests pinning the allocation-free Searcher against the
// O(n³) FloydWarshall reference and an independent map-based Dijkstra (the
// implementation the Searcher replaced), on random α-UBG instances.

import (
	"container/heap"
	"math"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/ubg"
)

// refItem / refPQ reproduce the retired container/heap implementation so
// the differential test keeps an independent oracle.
type refItem struct {
	v    int
	dist float64
}

type refPQ []refItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refBounded is the old map-based bounded Dijkstra, verbatim in behavior.
func refBounded(g *graph.Graph, src int, bound float64) map[int]float64 {
	out := make(map[int]float64)
	visited := make(map[int]bool)
	q := refPQ{{v: src, dist: 0}}
	for len(q) > 0 {
		it := heap.Pop(&q).(refItem)
		if visited[it.v] {
			continue
		}
		visited[it.v] = true
		out[it.v] = it.dist
		for _, h := range g.Neighbors(it.v) {
			nd := it.dist + h.W
			if nd <= bound && !visited[h.To] {
				heap.Push(&q, refItem{v: h.To, dist: nd})
			}
		}
	}
	return out
}

func randomUBG(t *testing.T, n int, seed int64) *ubg.Instance {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: geom.CloudUniform, N: n, Dim: 2, Seed: seed},
		ubg.Config{Alpha: 0.7, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSearcherMatchesFloydWarshall(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		inst := randomUBG(t, 40, seed)
		g := inst.G
		fw := g.FloydWarshall()
		s := graph.NewSearcher(g.N())

		dist := make([]float64, g.N())
		for src := 0; src < g.N(); src++ {
			s.Dijkstra(g, src, graph.Inf, dist)
			for v := 0; v < g.N(); v++ {
				if math.Abs(dist[v]-fw[src][v]) > 1e-12 {
					t.Fatalf("seed %d: Dijkstra(%d)[%d] = %v, FW %v", seed, src, v, dist[v], fw[src][v])
				}
			}
			for dst := 0; dst < g.N(); dst += 3 {
				// Unbounded target query must match FW exactly.
				d, ok := s.DijkstraTarget(g, src, dst, math.Inf(1))
				if !ok || math.Abs(d-fw[src][dst]) > 1e-12 {
					t.Fatalf("seed %d: target %d->%d = (%v, %v), FW %v", seed, src, dst, d, ok, fw[src][dst])
				}
				// Bounded query: found iff within bound, exact when found.
				bound := fw[src][dst] * 0.999
				if _, ok := s.DijkstraTarget(g, src, dst, bound); ok && src != dst {
					t.Fatalf("seed %d: target %d->%d found below its distance", seed, src, dst)
				}
				// A shortest path must exist within the exact distance and sum to it.
				path, pd, ok := s.PathTo(g, src, dst, fw[src][dst]+1e-12)
				if !ok || math.Abs(pd-fw[src][dst]) > 1e-12 {
					t.Fatalf("seed %d: PathTo %d->%d = (%v, %v), FW %v", seed, src, dst, pd, ok, fw[src][dst])
				}
				var sum float64
				for i := 0; i+1 < len(path); i++ {
					w, present := g.EdgeWeight(path[i], path[i+1])
					if !present {
						t.Fatalf("seed %d: PathTo hop %d-%d not an edge", seed, path[i], path[i+1])
					}
					sum += w
				}
				if path[0] != src || path[len(path)-1] != dst || math.Abs(sum-pd) > 1e-9 {
					t.Fatalf("seed %d: PathTo %d->%d invalid path %v (sum %v, dist %v)", seed, src, dst, path, sum, pd)
				}
			}
		}
	}
}

func TestSearcherBallMatchesMapReference(t *testing.T) {
	inst := randomUBG(t, 60, 9)
	g := inst.G
	s := graph.NewSearcher(g.N())
	for src := 0; src < g.N(); src++ {
		for _, bound := range []float64{0.1, 0.4, 1.1, math.Inf(1)} {
			want := refBounded(g, src, bound)
			ball := s.Ball(g, src, bound)
			if len(ball) != len(want) {
				t.Fatalf("Ball(%d, %v): %d vertices, reference %d", src, bound, len(ball), len(want))
			}
			for _, vd := range ball {
				if w, ok := want[vd.V]; !ok || math.Abs(w-vd.D) > 1e-12 {
					t.Fatalf("Ball(%d, %v): vertex %d dist %v, reference (%v, %v)", src, bound, vd.V, vd.D, w, ok)
				}
			}
		}
	}
}

// TestSearcherReuseAcrossGraphs exercises epoch reset and scratch growth:
// one Searcher alternating between graphs of different sizes must keep
// producing results identical to fresh computations.
func TestSearcherReuseAcrossGraphs(t *testing.T) {
	small := randomUBG(t, 25, 11).G
	big := randomUBG(t, 70, 12).G
	s := graph.NewSearcher(1)
	for round := 0; round < 3; round++ {
		for _, g := range []*graph.Graph{small, big, small} {
			fw := g.FloydWarshall()
			for src := 0; src < g.N(); src += 5 {
				for dst := 0; dst < g.N(); dst += 7 {
					d, ok := s.DijkstraTarget(g, src, dst, math.Inf(1))
					if !ok || math.Abs(d-fw[src][dst]) > 1e-12 {
						t.Fatalf("round %d: reused searcher %d->%d = (%v, %v), FW %v", round, src, dst, d, ok, fw[src][dst])
					}
				}
			}
		}
	}
}

// refHops is an independent unbounded BFS: map-based level expansion
// sharing nothing with the Searcher.
func refHops(g *graph.Graph, src int) map[int]int {
	hops := map[int]int{src: 0}
	for frontier := []int{src}; len(frontier) > 0; {
		var next []int
		for _, u := range frontier {
			for _, h := range g.Neighbors(u) {
				if _, seen := hops[h.To]; !seen {
					hops[h.To] = hops[u] + 1
					next = append(next, h.To)
				}
			}
		}
		frontier = next
	}
	return hops
}

func TestSearcherHopsTo(t *testing.T) {
	inst := randomUBG(t, 50, 21)
	g := inst.G
	s := graph.NewSearcher(g.N())
	for src := 0; src < g.N(); src += 4 {
		want := refHops(g, src)
		for dst := 0; dst < g.N(); dst += 3 {
			h, ok := s.HopsTo(g, src, dst)
			wh, wok := want[dst]
			if ok != wok || (ok && h != wh) {
				t.Fatalf("HopsTo(%d, %d) = (%d, %v), reference %d %v", src, dst, h, ok, wh, wok)
			}
		}
	}
}

// TestDijkstraTargetSteadyStateAllocs pins the tentpole's contract: a
// steady-state DijkstraTarget performs zero allocations.
func TestDijkstraTargetSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation pin not meaningful")
	}
	inst := randomUBG(t, 80, 31)
	g := inst.G
	// Warm the pooled searcher and its heap.
	for i := 0; i < 10; i++ {
		g.DijkstraTarget(0, g.N()-1, math.Inf(1))
	}
	allocs := testing.AllocsPerRun(100, func() {
		g.DijkstraTarget(0, g.N()-1, math.Inf(1))
	})
	if allocs != 0 {
		t.Fatalf("DijkstraTarget allocates %v per op in steady state, want 0", allocs)
	}
}

// TestDijkstraPruned pins the pruned-expansion kernel the hub-label
// builder (internal/labels) relies on: with a permissive visit callback it
// must settle exactly the vertices plain Dijkstra settles, in distance
// order, on both representations; and returning false from visit must
// suppress expansion through that vertex without suppressing the visit
// itself.
func TestDijkstraPruned(t *testing.T) {
	inst := randomUBG(t, 80, 901)
	srch := graph.NewSearcher(inst.G.N())
	for _, topo := range []graph.Topology{inst.G, graph.Freeze(inst.G)} {
		ref := refBounded(inst.G, 3, math.Inf(1))
		got := make(map[int]float64)
		last := -1.0
		srch.DijkstraPruned(topo, 3, graph.Inf, func(v int, d float64) bool {
			if d < last {
				t.Fatalf("settled out of order: %v after %v", d, last)
			}
			last = d
			got[v] = d
			return true
		})
		if len(got) != len(ref) {
			t.Fatalf("settled %d vertices, reference %d", len(got), len(ref))
		}
		for v, d := range ref {
			if gd, ok := got[v]; !ok || math.Abs(gd-d) > 1e-9*(1+d) {
				t.Fatalf("vertex %d: got %v ok=%v, want %v", v, gd, ok, d)
			}
		}
	}

	// Pruning at the source must visit the source alone.
	count := 0
	srch.DijkstraPruned(inst.G, 5, graph.Inf, func(v int, d float64) bool {
		count++
		if v != 5 || d != 0 {
			t.Fatalf("first visit (%d, %v), want (5, 0)", v, d)
		}
		return false
	})
	if count != 1 {
		t.Fatalf("pruned-at-source visited %d vertices, want 1", count)
	}

	// The bound must cut expansion exactly like the bounded reference.
	ref := refBounded(inst.G, 3, 0.9)
	count = 0
	srch.DijkstraPruned(inst.G, 3, 0.9, func(v int, d float64) bool {
		count++
		return true
	})
	if count != len(ref) {
		t.Fatalf("bounded pruned search settled %d, reference %d", count, len(ref))
	}
}
