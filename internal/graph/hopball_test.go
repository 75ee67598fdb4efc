package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceHopBall is an independent BFS used to pin HopBall: plain
// slice-based level expansion, no shared scratch.
func referenceHopBall(g Topology, src, maxHops int) map[int]int {
	dist := map[int]int{src: 0}
	frontier := []int{src}
	for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
		var next []int
		for _, v := range frontier {
			for _, h := range g.Neighbors(v) {
				if _, ok := dist[h.To]; !ok {
					dist[h.To] = hop + 1
					next = append(next, h.To)
				}
			}
		}
		frontier = next
	}
	return dist
}

func TestHopBallMatchesReferenceOnBothRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := NewSearcher(0)
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(40)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
		}
		f := Freeze(g)
		src := rng.Intn(n)
		maxHops := rng.Intn(5)
		want := referenceHopBall(g, src, maxHops)

		for _, topo := range []Topology{g, f} {
			ball := s.HopBall(topo, src, maxHops)
			if len(ball) != len(want) {
				t.Fatalf("trial %d: ball size %d, reference %d", trial, len(ball), len(want))
			}
			if ball[0].V != src || ball[0].Hops != 0 {
				t.Fatalf("trial %d: ball does not start at source: %+v", trial, ball[0])
			}
			prev := 0
			for _, vh := range ball {
				if wantHops, ok := want[vh.V]; !ok || wantHops != vh.Hops {
					t.Fatalf("trial %d: vertex %d at %d hops, reference %d (present %v)",
						trial, vh.V, vh.Hops, wantHops, ok)
				}
				if vh.Hops < prev {
					t.Fatalf("trial %d: BFS order violated: hop %d after %d", trial, vh.Hops, prev)
				}
				prev = vh.Hops
			}
		}
	}
}

// TestHopBallDepths pins the depth argument's edge cases on the path
// 0-1-2-3 plus the isolated vertex 4: depth 0 (and any negative depth) is
// the source alone, depth k stops at hop k, and depth N() is unbounded
// without ever reaching another component.
func TestHopBallDepths(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	cases := []struct {
		name     string
		src, max int
		want     []VertexHop
	}{
		{"depth-0", 0, 0, []VertexHop{{0, 0}}},
		{"negative-depth", 0, -1, []VertexHop{{0, 0}}},
		{"depth-2", 0, 2, []VertexHop{{0, 0}, {1, 1}, {2, 2}}},
		{"unbounded", 0, g.N(), []VertexHop{{0, 0}, {1, 1}, {2, 2}, {3, 3}}},
		{"isolated", 4, g.N(), []VertexHop{{4, 0}}},
	}
	s := NewSearcher(g.N())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, topo := range []Topology{g, Freeze(g)} {
				if got := s.HopBall(topo, c.src, c.max); !slices.Equal(got, c.want) {
					t.Errorf("HopBall(%T, %d, %d) = %v, want %v", topo, c.src, c.max, got, c.want)
				}
			}
		})
	}
}

func TestHopBallZeroHopsIsJustTheSource(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	s := NewSearcher(3)
	for _, topo := range []Topology{g, Freeze(g)} {
		ball := s.HopBall(topo, 1, 0)
		if len(ball) != 1 || ball[0].V != 1 || ball[0].Hops != 0 {
			t.Fatalf("zero-hop ball = %+v", ball)
		}
	}
}
