package mis

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLuby is Luby's MIS over every vertex of adj, drawing a priority for
// every active vertex, the isolated ones included: the reference the
// listed form must reproduce.
func refLuby(adj [][]int, seed int64, call int) Result {
	n := len(adj)
	key := splitmix64(splitmix64(uint64(seed)) ^ uint64(call))
	res := Result{InMIS: make([]bool, n)}
	active := make([]bool, n)
	for v := range active {
		active[v] = true
	}
	nActive := n
	prio := make([]uint64, n)
	for iter := 0; nActive > 0; iter++ {
		res.Rounds += 2
		for v := 0; v < n; v++ {
			if active[v] {
				prio[v] = priority(key, v, iter)
			}
		}
		var joined []int
		for v := 0; v < n; v++ {
			if !active[v] {
				continue
			}
			best := true
			for _, w := range adj[v] {
				if !active[w] {
					continue
				}
				if prio[w] > prio[v] || (prio[w] == prio[v] && w > v) {
					best = false
					break
				}
			}
			if best {
				joined = append(joined, v)
			}
		}
		for _, v := range joined {
			res.InMIS[v] = true
			if active[v] {
				active[v] = false
				nActive--
			}
			for _, w := range adj[v] {
				if active[w] {
					active[w] = false
					nActive--
				}
			}
		}
	}
	return res
}

// listed returns, in increasing order, the vertices of adj with a
// neighbor plus the isolated vertices extra marks, and adj restricted to
// them with neighbors renumbered by position.
func listed(adj [][]int, extra func(v int) bool) ([]int, [][]int) {
	pos := make([]int, len(adj))
	var ids []int
	for v := range adj {
		if len(adj[v]) > 0 || extra(v) {
			pos[v] = len(ids)
			ids = append(ids, v)
		}
	}
	sub := make([][]int, len(ids))
	for i, v := range ids {
		for _, w := range adj[v] {
			sub[i] = append(sub[i], pos[w])
		}
	}
	return ids, sub
}

// checkLubyMatchesRef runs the listed Luby over ids and the reference
// over all of adj with the same seed and call: the MIS and the rounds
// must agree.
func checkLubyMatchesRef(adj [][]int, extra func(v int) bool, seed int64, call int) error {
	ids, sub := listed(adj, extra)
	want := refLuby(adj, seed, call)
	got := Luby(sub, ids, len(adj), seed, call)
	if got.Rounds != want.Rounds {
		return fmt.Errorf("%d rounds, reference %d", got.Rounds, want.Rounds)
	}
	if len(got.InMIS) != len(ids) {
		return fmt.Errorf("InMIS has %d entries for %d listed vertices", len(got.InMIS), len(ids))
	}
	next := 0
	for v, in := range want.InMIS {
		if next < len(ids) && ids[next] == v {
			if got.InMIS[next] != in {
				return fmt.Errorf("vertex %d: InMIS %v, reference %v", v, got.InMIS[next], in)
			}
			next++
		} else if !in {
			return fmt.Errorf("unlisted vertex %d left out of the reference MIS", v)
		}
	}
	return nil
}

// TestLubyListedMatchesReference compares the listed Luby with the
// full-graph reference on random graphs with isolated vertices, some of
// them listed too, and on the edge cases: no vertex listed, an
// all-isolated graph listed whole, and the empty graph.
func TestLubyListedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	none := func(int) bool { return false }
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		adj := randomAdj(rng, n, []float64{0.01, 0.05, 0.2}[trial%3])
		mark := rng.Int63()
		extra := func(v int) bool { return mark>>(v%63)&1 == 1 }
		for _, ex := range []func(int) bool{none, extra} {
			if err := checkLubyMatchesRef(adj, ex, int64(trial), trial%5); err != nil {
				t.Fatalf("trial %d, n=%d: %v", trial, n, err)
			}
		}
	}
	all := func(int) bool { return true }
	for _, tc := range []struct {
		name  string
		n     int
		extra func(int) bool
	}{
		{"no vertex listed", 9, none},
		{"all-isolated graph listed", 9, all},
		{"empty graph", 0, all},
	} {
		if err := checkLubyMatchesRef(make([][]int, tc.n), tc.extra, 5, 0); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// FuzzLuby decodes bytes into a graph of at most 64 vertices (the first
// byte the vertex count, then edge pairs), lists the vertices with a
// neighbor and those mask marks, and checks the listed Luby against the
// full-graph reference under the fuzzed seed and call. The seed corpus
// runs in the ordinary test pass.
func FuzzLuby(f *testing.F) {
	f.Add([]byte{}, uint64(0), int64(1), uint8(0))
	f.Add([]byte{8}, uint64(0), int64(2), uint8(1))
	f.Add([]byte{8}, ^uint64(0), int64(3), uint8(0))
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 5, 6, 9, 10}, uint64(1<<11), int64(4), uint8(7))
	f.Add([]byte{40, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 20, 21, 30, 39}, uint64(0xf0f0), int64(5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mask uint64, seed int64, call uint8) {
		n := 0
		if len(data) > 0 {
			n = int(data[0]) % 65
			data = data[1:]
		}
		var pairs [][2]int
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			pairs = append(pairs, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		extra := func(v int) bool { return mask>>(v%64)&1 == 1 }
		if err := checkLubyMatchesRef(fromEdgePairs(n, pairs), extra, seed, int(call)); err != nil {
			t.Fatal(err)
		}
	})
}
