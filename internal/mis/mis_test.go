package mis

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomAdj builds symmetric adjacency lists for a G(n, p) graph.
func randomAdj(rng *rand.Rand, n int, p float64) [][]int {
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	return fromEdgePairs(n, pairs)
}

// fromEdgePairs builds symmetric adjacency lists over n vertices from an
// unordered pair list, dropping duplicates and self-loops.
func fromEdgePairs(n int, pairs [][2]int) [][]int {
	seen := make(map[[2]int]bool)
	adj := make([][]int, n)
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if seen[k] {
			continue
		}
		seen[k] = true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return adj
}

// TestLubyProducesValidMISProperty is the main contract test: independence
// and maximality on random graphs across densities.
func TestLubyProducesValidMISProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	f := func(seed uint8) bool {
		n := 1 + int(seed)%40
		p := []float64{0.05, 0.2, 0.5, 0.9}[int(seed)%4]
		adj := randomAdj(rng, n, p)
		res := Luby(adj, rng)
		return len(Validate(adj, res.InMIS)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGreedyProducesValidMISProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	f := func(seed uint8) bool {
		n := 1 + int(seed)%40
		adj := randomAdj(rng, n, 0.3)
		return len(Validate(adj, Greedy(adj))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLubyEmptyGraphJoinsAll(t *testing.T) {
	adj := make([][]int, 5)
	rng := rand.New(rand.NewSource(1))
	res := Luby(adj, rng)
	for v, in := range res.InMIS {
		if !in {
			t.Errorf("isolated vertex %d not in MIS", v)
		}
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (single iteration)", res.Rounds)
	}
}

func TestLubyCompleteGraphPicksOne(t *testing.T) {
	n := 12
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	adj := fromEdgePairs(n, pairs)
	rng := rand.New(rand.NewSource(2))
	res := Luby(adj, rng)
	count := 0
	for _, in := range res.InMIS {
		if in {
			count++
		}
	}
	if count != 1 {
		t.Errorf("complete graph MIS size = %d, want 1", count)
	}
}

func TestGreedyIsLexicographicallyFirst(t *testing.T) {
	// Path 0-1-2-3: greedy by ID picks {0, 2} and then 3 is blocked by 2;
	// wait: 3's only neighbor is 2 which is in — so MIS = {0, 2}.
	adj := fromEdgePairs(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	in := Greedy(adj)
	want := []bool{true, false, true, false}
	for v := range want {
		if in[v] != want[v] {
			t.Errorf("greedy MIS[%d] = %v, want %v", v, in[v], want[v])
		}
	}
}

func TestLubyDeterministicUnderSeed(t *testing.T) {
	adjA := randomAdj(rand.New(rand.NewSource(3)), 30, 0.2)
	a := Luby(adjA, rand.New(rand.NewSource(77)))
	b := Luby(adjA, rand.New(rand.NewSource(77)))
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatal("Luby not deterministic under fixed seed")
		}
	}
	if a.Rounds != b.Rounds {
		t.Fatal("round counts differ under fixed seed")
	}
}

// TestLubyRoundsGrowSlowly sanity-checks the O(log n) w.h.p. round bound:
// rounds on a 1000-vertex random graph should be far below the vertex count.
func TestLubyRoundsGrowSlowly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	adj := randomAdj(rng, 1000, 0.01)
	res := Luby(adj, rng)
	if res.Rounds > 60 { // 2 rounds/iter; ~30 iterations would already be extreme
		t.Errorf("Luby used %d rounds on n=1000; expected O(log n)", res.Rounds)
	}
	if errs := Validate(adj, res.InMIS); len(errs) > 0 {
		t.Errorf("invalid MIS: %v", errs)
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	adj := fromEdgePairs(3, [][2]int{{0, 1}, {1, 2}})
	// Adjacent MIS vertices.
	if errs := Validate(adj, []bool{true, true, false}); len(errs) == 0 {
		t.Error("adjacent MIS vertices not detected")
	}
	// Undominated vertex (empty set).
	if errs := Validate(adj, []bool{false, false, false}); len(errs) == 0 {
		t.Error("undominated vertex not detected")
	}
	// Valid MIS.
	if errs := Validate(adj, []bool{true, false, true}); len(errs) != 0 {
		t.Errorf("valid MIS rejected: %v", errs)
	}
}

func TestFromEdgePairsDedup(t *testing.T) {
	adj := fromEdgePairs(3, [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}})
	if len(adj[0]) != 1 || len(adj[1]) != 1 || len(adj[2]) != 0 {
		t.Errorf("dedup failed: %v", adj)
	}
}

// Validate checks that in encodes a maximal independent set of the graph:
// no two MIS vertices are adjacent, and every non-MIS vertex has an MIS
// neighbor. It returns a list of violation descriptions (empty means valid).
func Validate(adj [][]int, in []bool) []string {
	var violations []string
	for v := range adj {
		if in[v] {
			for _, w := range adj[v] {
				if in[w] && v < w {
					violations = append(violations, "adjacent MIS vertices")
				}
			}
			continue
		}
		dominated := false
		for _, w := range adj[v] {
			if in[w] {
				dominated = true
				break
			}
		}
		if !dominated {
			violations = append(violations, "undominated non-MIS vertex")
		}
	}
	sort.Strings(violations)
	return violations
}
