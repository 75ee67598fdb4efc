package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph generates a random weighted graph for differential testing.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
		}
	}
	return g
}

// TestDijkstraMatchesFloydWarshallProperty is the core differential test:
// single-source Dijkstra must agree with all-pairs Floyd–Warshall on random
// graphs of varying density.
func TestDijkstraMatchesFloydWarshallProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(seed uint8) bool {
		n := 2 + int(seed)%14
		g := randomGraph(rng, n, 0.3)
		fw := g.FloydWarshall()
		for src := 0; src < n; src++ {
			d := g.Dijkstra(src)
			for v := 0; v < n; v++ {
				a, b := d[v], fw[src][v]
				if math.IsInf(a, 1) != math.IsInf(b, 1) {
					return false
				}
				if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBallIsTruncation pins Ball against the full single-source search:
// a ball is exactly the vertices at distance <= bound, at their full
// distances, in nondecreasing settling order — on both representations.
func TestBallIsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewSearcher(20)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 20, 0.25)
		src := rng.Intn(20)
		bound := rng.Float64() * 2
		full := g.Dijkstra(src)
		within := 0
		for _, d := range full {
			if d <= bound {
				within++
			}
		}
		for _, topo := range []Topology{g, Freeze(g)} {
			ball := s.Ball(topo, src, bound)
			if len(ball) != within {
				t.Fatalf("ball holds %d vertices, %d are within bound %v", len(ball), within, bound)
			}
			if ball[0] != (VertexDist{V: src}) {
				t.Fatalf("ball starts at %+v, want the source %d at 0", ball[0], src)
			}
			for i, vd := range ball {
				if math.Abs(vd.D-full[vd.V]) > 1e-9 {
					t.Fatalf("bounded distance %v != full %v", vd.D, full[vd.V])
				}
				if vd.D > bound+1e-12 {
					t.Fatalf("bounded search returned %v > bound %v", vd.D, bound)
				}
				if i > 0 && vd.D < ball[i-1].D {
					t.Fatalf("settling order violated: %v after %v", vd.D, ball[i-1].D)
				}
			}
		}
	}
}

func TestDijkstraTargetAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 15, 0.3)
		u, v := rng.Intn(15), rng.Intn(15)
		full := g.Dijkstra(u)
		bound := rng.Float64() * 3
		d, ok := g.DijkstraTarget(u, v, bound)
		reachable := full[v] <= bound
		if ok != reachable {
			t.Fatalf("DijkstraTarget ok=%v but full distance %v vs bound %v", ok, full[v], bound)
		}
		if ok && math.Abs(d-full[v]) > 1e-9 {
			t.Fatalf("DijkstraTarget distance %v != %v", d, full[v])
		}
	}
}

func TestDijkstraTargetSelf(t *testing.T) {
	g := New(2)
	if d, ok := g.DijkstraTarget(0, 0, 0); !ok || d != 0 {
		t.Errorf("self target = %v, %v", d, ok)
	}
}

func TestDijkstraPathOnLine(t *testing.T) {
	// 0 -1- 1 -1- 2 -1- 3, plus shortcut 0-3 weight 10.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 10)
	d := g.Dijkstra(0)
	want := []float64{0, 1, 2, 3}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("d[%d] = %v, want %v", i, d[i], w)
		}
	}
}

func TestUnreachableIsInf(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	d := g.Dijkstra(0)
	if !math.IsInf(d[2], 1) {
		t.Errorf("unreachable distance = %v", d[2])
	}
	if _, ok := g.DijkstraTarget(0, 2, 1e18); ok {
		t.Error("unreachable target reported reachable")
	}
}
