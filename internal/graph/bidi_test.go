package graph

// Differential fuzz suite for the point-to-point kernels: the
// bidirectional DijkstraTarget and PathTo (and the append-style
// AppendPathTo), and the goal-directed AStarTarget and AppendAStarPathTo,
// must agree with the retained unidirectional reference kernel on
// distance, found flag, and bound semantics — for both the mutable *Graph
// and the frozen CSR *Frozen — and every returned path must be a valid
// walk whose edge weights sum to the reported length. AppendPathWithin,
// which returns any path within the bound, must find one exactly when the
// reference does, and its walk must weigh at most the bound. The A* arms run
// with the straight-line potential on geometric graphs (weights at least
// their points' distance, 2-D and 3-D) and with π ≡ 0 (nil points) on
// the arbitrary-weight ones.

import (
	"math"
	"math/rand"
	"testing"

	"topoctl/internal/geom"
)

// checkPointQuery cross-checks one (src, dst, bound) query on topology
// view t, embedded at pts (nil when the weights are not geometric),
// against the unidirectional reference answer (refD, refOK) computed on
// the same logical graph.
func checkPointQuery(tt *testing.T, s *Searcher, t Topology, pts []geom.Point, src, dst int, bound, refD float64, refOK bool) {
	tt.Helper()
	d, ok := s.DijkstraTarget(t, src, dst, bound)
	checkDistance(tt, "DijkstraTarget", src, dst, bound, d, ok, refD, refOK)
	if got := s.ReachableWithin(t, src, dst, bound); got != refOK {
		tt.Fatalf("ReachableWithin(%d,%d,%v) = %v, reference %v", src, dst, bound, got, refOK)
	}
	path, pd, pok := s.PathTo(t, src, dst, bound)
	checkPath(tt, "PathTo", t, src, dst, bound, path, pd, pok, refD, refOK)
	walk, wok := s.AppendPathWithin(nil, t, src, dst, bound)
	checkWithin(tt, t, src, dst, bound, walk, wok, refOK)

	d, ok = s.AStarTarget(t, pts, src, dst, bound)
	checkDistance(tt, "AStarTarget", src, dst, bound, d, ok, refD, refOK)
	path, pd, pok = s.AppendAStarPathTo(nil, t, pts, src, dst, bound)
	checkPath(tt, "AppendAStarPathTo", t, src, dst, bound, path, pd, pok, refD, refOK)
}

// checkDistance compares one kernel's distance answer with the reference,
// within 1e-9 relative: kernels sum a path in different orders.
func checkDistance(tt *testing.T, kernel string, src, dst int, bound, d float64, ok bool, refD float64, refOK bool) {
	tt.Helper()
	if ok != refOK {
		tt.Fatalf("%s(%d,%d,%v) found=%v, reference %v", kernel, src, dst, bound, ok, refOK)
	}
	if ok && math.Abs(d-refD) > 1e-9*(1+math.Abs(refD)) {
		tt.Fatalf("%s(%d,%d,%v) = %v, reference %v", kernel, src, dst, bound, d, refD)
	}
}

// checkPath certifies one kernel's path answer: found flag and length as
// the reference says, and the path a simple src→dst walk in t whose
// weight (PathWeight) is the reported length. Between equal-cost paths
// kernels may choose differently, so the path itself is not compared.
func checkPath(tt *testing.T, kernel string, t Topology, src, dst int, bound float64, path []int, pd float64, pok bool, refD float64, refOK bool) {
	tt.Helper()
	if pok != refOK {
		tt.Fatalf("%s(%d,%d,%v) found=%v, reference %v", kernel, src, dst, bound, pok, refOK)
	}
	if !pok {
		if path != nil {
			tt.Fatalf("%s(%d,%d,%v) not found but returned path %v", kernel, src, dst, bound, path)
		}
		return
	}
	if math.Abs(pd-refD) > 1e-9*(1+math.Abs(refD)) {
		tt.Fatalf("%s(%d,%d,%v) length %v, reference %v", kernel, src, dst, bound, pd, refD)
	}
	if path[0] != src || path[len(path)-1] != dst {
		tt.Fatalf("%s(%d,%d) endpoints %v", kernel, src, dst, path)
	}
	sum, walk := PathWeight(t, path)
	if !walk {
		tt.Fatalf("%s(%d,%d) path %v is not a walk in the graph", kernel, src, dst, path)
	}
	if math.Abs(sum-pd) > 1e-9*(1+math.Abs(pd)) {
		tt.Fatalf("%s(%d,%d) path sums to %v, reported %v", kernel, src, dst, sum, pd)
	}
	for i, v := range path {
		for j := i + 1; j < len(path); j++ {
			if path[j] == v {
				tt.Fatalf("%s(%d,%d) revisits %d: %v", kernel, src, dst, v, path)
			}
		}
	}
}

// checkWithin certifies an AppendPathWithin answer: found exactly when
// the reference finds a path within bound, and then a src→dst walk in t
// whose weight is at most bound, within 1e-9 relative (the walk is summed
// in another order than its two halves were). Its halves may share a
// vertex, so a repeat is allowed.
func checkWithin(tt *testing.T, t Topology, src, dst int, bound float64, path []int, ok, refOK bool) {
	tt.Helper()
	if ok != refOK {
		tt.Fatalf("AppendPathWithin(%d,%d,%v) found=%v, reference %v", src, dst, bound, ok, refOK)
	}
	if !ok {
		if path != nil {
			tt.Fatalf("AppendPathWithin(%d,%d,%v) not found but returned path %v", src, dst, bound, path)
		}
		return
	}
	if path[0] != src || path[len(path)-1] != dst {
		tt.Fatalf("AppendPathWithin(%d,%d) endpoints %v", src, dst, path)
	}
	sum, walk := PathWeight(t, path)
	if !walk {
		tt.Fatalf("AppendPathWithin(%d,%d) path %v is not a walk in the graph", src, dst, path)
	}
	if sum > bound+1e-9*(1+math.Abs(bound)) {
		tt.Fatalf("AppendPathWithin(%d,%d,%v) path %v weighs %v", src, dst, bound, path, sum)
	}
}

// geoRandGraph returns a random graph on n uniform points in [0,1]^dim with
// up to edges edges between random pairs, each weighing its endpoints'
// distance — or, with slack, up to twice that, which the A* precondition
// (weight ≥ distance) still admits. One point in eight duplicates an
// earlier one, so zero-weight edges occur.
func geoRandGraph(rng *rand.Rand, n, edges, dim int, slack bool) (*Graph, []geom.Point) {
	pts := make([]geom.Point, n)
	for i := range pts {
		if i > 0 && rng.Intn(8) == 0 {
			pts[i] = pts[rng.Intn(i)].Clone()
			continue
		}
		pts[i] = make(geom.Point, dim)
		for k := range pts[i] {
			pts[i][k] = rng.Float64()
		}
	}
	g := New(n)
	for tries := 0; g.M() < edges && tries < 20*edges; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.AddEdge(u, v, geoWeight(rng, pts, u, v, slack))
	}
	return g, pts
}

// geoWeight is an edge weight satisfying the A* precondition: the
// endpoints' distance, stretched by a random factor in [1, 2) with slack.
func geoWeight(rng *rand.Rand, pts []geom.Point, u, v int, slack bool) float64 {
	w := geom.Dist(pts[u], pts[v])
	if slack {
		w *= 1 + rng.Float64()
	}
	return w
}

// fuzzQueries drives a batch of cross-checked queries against both the
// mutable graph and a fresh frozen copy; pts is g's embedding, nil when
// its weights are not geometric.
func fuzzQueries(t *testing.T, rng *rand.Rand, s, ref *Searcher, g *Graph, pts []geom.Point, queries int) {
	t.Helper()
	f := Freeze(g)
	n := g.N()
	for q := 0; q < queries; q++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		refD, refConn := ref.DijkstraTargetUni(g, src, dst, Inf)
		// Bound menu: unbounded; strictly below the distance (must not be
		// found); just above it (must be found); and an unrelated random
		// bound whose found-ness both kernels must agree on. Exact-distance
		// bounds are excluded deliberately: the two kernels sum the same
		// path in different association orders, so at a bound within one
		// ulp of the distance they may legitimately disagree.
		bounds := []struct {
			b  float64
			ok bool
		}{{Inf, refConn}}
		if refConn && refD > 0 {
			bounds = append(bounds,
				struct {
					b  float64
					ok bool
				}{refD * 0.999, false},
				struct {
					b  float64
					ok bool
				}{refD*1.001 + 1e-9, true},
			)
		}
		rb := rng.Float64() * 3
		_, rbOK := ref.DijkstraTargetUni(g, src, dst, rb)
		bounds = append(bounds, struct {
			b  float64
			ok bool
		}{rb, rbOK})
		for _, bc := range bounds {
			d := refD
			if src == dst {
				d = 0
			}
			checkPointQuery(t, s, g, pts, src, dst, bc.b, d, bc.ok)
			checkPointQuery(t, s, f, pts, src, dst, bc.b, d, bc.ok)
		}
	}
}

// TestBidiMatchesUniFuzz fuzzes 1000 random graphs — including sparse,
// dense, disconnected, and edgeless shapes — comparing the bidirectional
// and A* kernels against the unidirectional reference on both
// representations; each trial also fuzzes a geometric graph of the same
// shape (alternately 2-D and 3-D, every fourth with slack weights) on
// which A* runs with the straight-line potential.
func TestBidiMatchesUniFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	s, ref := NewSearcher(0), NewSearcher(0)
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(32)
		m := rng.Intn(3 * n)
		fuzzQueries(t, rng, s, ref, frozenRandGraph(rng, n, m), nil, 6)
		g, pts := geoRandGraph(rng, n, m, 2+trial%2, trial%4 == 3)
		fuzzQueries(t, rng, s, ref, g, pts, 6)
	}
}

// TestBidiMatchesUniUnderMutationChains replays PR-2-style mutation
// chains: interleaved random edge insertions and removals with
// cross-checked queries after every step, re-freezing periodically so the
// CSR loop is exercised against post-mutation adjacency too (rows shuffled
// by RemoveEdge's swap-delete). The first 25 chains have arbitrary
// weights; the next 25 are geometric (2-D and 3-D), so the A* arms run
// with the straight-line potential.
func TestBidiMatchesUniUnderMutationChains(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	s, ref := NewSearcher(0), NewSearcher(0)
	for chain := 0; chain < 50; chain++ {
		n := 8 + rng.Intn(24)
		g := frozenRandGraph(rng, n, n)
		var pts []geom.Point
		if chain >= 25 {
			g, pts = geoRandGraph(rng, n, n, 2+chain%2, false)
		}
		for step := 0; step < 40; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			switch {
			case g.HasEdge(u, v):
				g.RemoveEdge(u, v)
			case pts != nil:
				g.AddEdge(u, v, geoWeight(rng, pts, u, v, false))
			default:
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
			fuzzQueries(t, rng, s, ref, g, pts, 2)
		}
	}
}

// TestAStarPrecondition pins that the weight ≥ distance precondition is
// what makes A* exact, not luck: on a triangle whose two short legs weigh
// less than their length, the straight-line potential of the middle
// vertex overestimates and A* settles the target over the direct edge
// before the cheaper two-leg path is expanded. With π ≡ 0 (nil points)
// the same kernel is exact on that graph.
func TestAStarPrecondition(t *testing.T) {
	pts := []geom.Point{{0, 0}, {0, 1}, {1, 0}}
	g := New(3)
	g.AddEdge(0, 1, 0.1) // length 1
	g.AddEdge(1, 2, 0.1) // length √2
	g.AddEdge(0, 2, 1)   // length 1
	s := NewSearcher(3)
	if d, ok := s.AStarTarget(g, nil, 0, 2, Inf); !ok || math.Abs(d-0.2) > 1e-12 {
		t.Fatalf("π ≡ 0: AStarTarget = %v, %v; want 0.2", d, ok)
	}
	if d, _ := s.AStarTarget(g, pts, 0, 2, Inf); d != 1 {
		t.Fatalf("inadmissible potential: AStarTarget = %v, want the direct edge's 1", d)
	}
}

// TestAppendPathToSemantics pins the append contract of both path
// kernels: the path is appended after the existing prefix, a miss leaves
// the buffer untouched, and a warmed buffer is reused without
// reallocation.
func TestAppendPathToSemantics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	pts := []geom.Point{{0, 0}, {1, 0}, {2, 0}, {5, 5}}
	s := NewSearcher(g.N())
	kernels := map[string]func(buf []int, src, dst int) ([]int, float64, bool){
		"AppendPathTo": func(buf []int, src, dst int) ([]int, float64, bool) {
			return s.AppendPathTo(buf, g, src, dst, Inf)
		},
		"AppendAStarPathTo": func(buf []int, src, dst int) ([]int, float64, bool) {
			return s.AppendAStarPathTo(buf, g, pts, src, dst, Inf)
		},
	}
	for name, appendPath := range kernels {
		buf := []int{77}
		buf, d, ok := appendPath(buf, 0, 2)
		if !ok || d != 2 {
			t.Fatalf("%s = %v, %v", name, d, ok)
		}
		want := []int{77, 0, 1, 2}
		if len(buf) != len(want) {
			t.Fatalf("%s: buf = %v, want %v", name, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("%s: buf = %v, want %v", name, buf, want)
			}
		}

		// Miss: vertex 3 is isolated; the buffer must come back unchanged.
		missBuf, _, ok := appendPath(buf, 0, 3)
		if ok || len(missBuf) != len(buf) {
			t.Fatalf("%s: miss altered buffer: %v ok=%v", name, missBuf, ok)
		}

		// Reuse: with sufficient capacity no new array is allocated.
		buf = buf[:0]
		buf2, _, ok := appendPath(buf, 0, 2)
		if !ok || &buf2[0] != &buf[:1][0] {
			t.Fatalf("%s reallocated despite sufficient capacity", name)
		}

		// src == dst appends the single vertex, even with a prefix.
		self, d, ok := appendPath([]int{5}, 2, 2)
		if !ok || d != 0 || len(self) != 2 || self[1] != 2 {
			t.Fatalf("%s: self route = %v, %v, %v", name, self, d, ok)
		}
	}
}
