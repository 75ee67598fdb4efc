package labels

// The differential conformance harness: the hub-label oracle must agree
// with the reference search kernels on every answer it certifies, over
// fuzzed random graphs (both *Graph and *Frozen representations) and fuzzed
// Join/Leave/Move chains with per-commit label maintenance. The oracle is
// allowed to decline (stale mode → caller falls back to its search) but
// never to be wrong.

import (
	"math"
	"math/rand"
	"testing"

	"topoctl/internal/dynamic"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/graph/graphtest"
	"topoctl/internal/ubg"
)

// distEqual compares with the same relative tolerance the bidirectional
// search differential tests use: sums of the same edge weights associate
// differently across kernels.
func distEqual(a, b float64) bool {
	if a == b { // covers +Inf == +Inf
		return true
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// checkPairs cross-checks the oracle against graphtest.Dijkstra on topo for
// the given pairs. The oracle must certify (fresh oracles never decline).
func checkPairs(t *testing.T, tag string, o *Oracle, topo graph.Topology, pairs [][2]int) {
	t.Helper()
	dist := make([][]float64, topo.N()) // reference distances by source
	for _, p := range pairs {
		d, ok := o.Query(p[0], p[1])
		if !ok {
			t.Fatalf("%s: fresh oracle declined Query(%d,%d)", tag, p[0], p[1])
		}
		if dist[p[0]] == nil {
			dist[p[0]] = graphtest.Dijkstra(topo, p[0])
		}
		ref := dist[p[0]][p[1]]
		if !distEqual(d, ref) {
			t.Fatalf("%s: Query(%d,%d) = %v, reference %v", tag, p[0], p[1], d, ref)
		}
	}
}

func samplePairs(rng *rand.Rand, n, want int) [][2]int {
	if n*n <= want {
		out := make([][2]int, 0, n*n)
		for s := 0; s < n; s++ {
			for u := 0; u < n; u++ {
				out = append(out, [2]int{s, u})
			}
		}
		return out
	}
	out := make([][2]int, want)
	for i := range out {
		out[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return out
}

// TestDifferentialRandomGraphs fuzzes ≥1000 random graphs (mixed density,
// including disconnected ones) and pins the oracle against the reference
// kernel on both the adjacency-list and frozen CSR representations, built
// in the production hub order and in a random one.
func TestDifferentialRandomGraphs(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 150
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < iters; i++ {
		n := 2 + rng.Intn(39)
		p := rng.Float64() * 0.3 // sparse through moderately dense, often disconnected
		g := randomGraph(rng, n, p)
		f := graph.Freeze(g)
		pairs := samplePairs(rng, n, 60)
		checkPairs(t, "graph", Build(g, Options{}), g, pairs)
		checkPairs(t, "frozen", Build(f, Options{}), f, pairs)
		// The order decides label size, never correctness: any
		// permutation must give the same answers.
		perm := Options{order: func(g graph.Topology) []int { return rng.Perm(g.N()) }}
		checkPairs(t, "graph/random order", Build(g, perm), g, pairs)
		checkPairs(t, "frozen/random order", Build(f, perm), f, pairs)
	}
}

// TestDifferentialAdditionChains fuzzes chains of pure edge additions,
// maintaining the oracle per commit and re-verifying against the reference
// after every commit. Each change leaves the oracle stale; at the rebuild
// horizon (every other commit here) Update's own rebuild is checked.
func TestDifferentialAdditionChains(t *testing.T) {
	chains := 60
	if testing.Short() {
		chains = 12
	}
	rng := rand.New(rand.NewSource(11))
	opts := Options{rebuildAfter: 2}
	for c := 0; c < chains; c++ {
		n := 8 + rng.Intn(33)
		g := randomGraph(rng, n, 0.08)
		o := Build(g, opts)
		for step := 0; step < 6; step++ {
			g = g.Clone()
			var touched []int
			adds := 1 + rng.Intn(3)
			for k := 0; k < adds; k++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v || g.HasEdge(u, v) {
					continue
				}
				g.AddEdge(u, v, 0.05+rng.Float64())
				touched = append(touched, u, v)
			}
			o = o.Update(g, touched)
			if o.Stats().Stale {
				// Declining is sound; rebuild and keep going.
				o = Build(g, opts)
			}
			checkPairs(t, "chain", o, g, samplePairs(rng, n, 40))
		}
	}
}

// TestDifferentialMutationChains drives a dynamic.Engine through fuzzed
// Join/Leave/Move churn, maintains the oracle per commit from the same
// touched-row deltas graph.ApplyRows consumes (via ExportFrozen /
// LastExportTouched), and pins every certified answer against
// DijkstraTarget on the exported spanner. Declines must coincide with
// stale mode and heal at the rebuild horizon.
func TestDifferentialMutationChains(t *testing.T) {
	chains := 10
	opsPerChain := 70
	if testing.Short() {
		chains = 3
		opsPerChain = 30
	}
	for c := 0; c < chains; c++ {
		c := c
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		n0 := 16 + rng.Intn(17)
		side := ubg.DensitySide(n0, 2, 1, 6)
		pts := geom.GeneratePoints(geom.CloudConfig{N: n0, Dim: 2, Side: side, Seed: int64(77 + c)})
		eng, err := dynamic.New(pts, dynamic.Options{T: 1.8})
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, sp := eng.ExportFrozen()
		// Tight rebuildAfter so chains of this length cross the
		// stale→rebuild horizon many times.
		opts := Options{rebuildAfter: 4}
		o := Build(sp, opts)
		srch := graph.AcquireSearcher(sp.N())

		for step := 0; step < opsPerChain; step++ {
			switch rng.Intn(4) {
			case 0, 1: // join-heavy
				p := geom.Point{rng.Float64() * side, rng.Float64() * side}
				if _, err := eng.Join(p); err != nil {
					t.Fatal(err)
				}
			case 2:
				ids := eng.IDs(nil)
				if len(ids) > 4 {
					if err := eng.Leave(ids[rng.Intn(len(ids))]); err != nil {
						t.Fatal(err)
					}
				}
			default:
				ids := eng.IDs(nil)
				if len(ids) > 0 {
					p := geom.Point{rng.Float64() * side, rng.Float64() * side}
					if err := eng.Move(ids[rng.Intn(len(ids))], p); err != nil {
						t.Fatal(err)
					}
				}
			}
			_, _, _, sp = eng.ExportFrozen()
			o = o.Update(sp, eng.LastExportTouched())

			ids := eng.IDs(nil)
			if len(ids) < 2 {
				continue
			}
			for q := 0; q < 24; q++ {
				s, u := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				d, ok := o.Query(s, u)
				if !ok {
					// Sound decline: the caller would fall back to the
					// exact search — nothing to cross-check beyond the
					// stale flag being the only reason to decline.
					if !o.Stats().Stale {
						t.Fatalf("chain %d step %d: non-stale oracle declined", c, step)
					}
					continue
				}
				ref, refOK := srch.DijkstraTarget(sp, s, u, graph.Inf)
				if !refOK {
					ref = graph.Inf
				}
				if !distEqual(d, ref) {
					t.Fatalf("chain %d step %d: Query(%d,%d) = %v, reference %v (stats %+v)",
						c, step, s, u, d, ref, o.Stats())
				}
			}
		}
		graph.ReleaseSearcher(srch)
	}
}
