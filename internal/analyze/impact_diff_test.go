package analyze

import (
	"math/rand"
	"reflect"
	"testing"

	"topoctl/internal/graph"
	"topoctl/internal/greedy"
)

// TestImpactDifferential is the acceptance pin for /analyze/impact: over
// 200+ fuzzed graphs and fault sets, the report must (a) be identical on
// the mutable and frozen representations and (b) match a brute-force
// recompute — independent BFS components for the unreachable set, a fresh
// unidirectional Dijkstra per base edge for the over-stretch and
// disconnected counts.
func TestImpactDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 6 + rng.Intn(30)
		tt := 1.2 + 2*rng.Float64()
		g := graph.New(n)
		for i := 1; i < n; i++ {
			// Random attachment keeps most trials connected...
			g.AddEdge(i, rng.Intn(i), 0.1+rng.Float64())
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, 0.1+rng.Float64())
			}
		}
		if trial%5 == 0 {
			// ...but every fifth trial splits the graph outright.
			cut := 1 + rng.Intn(n-2)
			for _, e := range graph.SortedEdges(g) {
				if (e.U < cut) != (e.V < cut) {
					g.RemoveEdge(e.U, e.V)
				}
			}
		}
		sp := greedy.Spanner(g, tt)

		k := rng.Intn(4)
		req := ImpactRequest{MaxWitnesses: n * n}
		for i := 0; i < k; i++ {
			req.Vertices = append(req.Vertices, rng.Intn(n))
		}

		mutable := View{Base: g, Spanner: sp, T: tt}
		frozen := View{Base: graph.Freeze(g), Spanner: graph.Freeze(sp), T: tt}
		repM, err := Impact(mutable, req, Options{})
		if err != nil {
			t.Fatalf("trial %d: mutable impact: %v", trial, err)
		}
		repF, err := Impact(frozen, req, Options{})
		if err != nil {
			t.Fatalf("trial %d: frozen impact: %v", trial, err)
		}
		if !reflect.DeepEqual(repM, repF) {
			t.Fatalf("trial %d: representations disagree:\nmutable: %+v\nfrozen:  %+v", trial, repM, repF)
		}
		checkImpactBruteForce(t, trial, g, sp, tt, repM)
	}
}

// checkImpactBruteForce recomputes every claim of rep from scratch.
func checkImpactBruteForce(t *testing.T, trial int, g, sp *graph.Graph, tt float64, rep *ImpactReport) {
	t.Helper()
	n := g.N()
	down := make(map[int]bool, len(rep.Faulted))
	for _, x := range rep.Faulted {
		down[x] = true
	}
	if rep.Survivors != n-len(down) {
		t.Fatalf("trial %d: survivors %d, want %d", trial, rep.Survivors, n-len(down))
	}

	// Apply the fault set to an independent copy of the spanner.
	sf := sp.Clone()
	for x := range down {
		for _, h := range append([]graph.Halfedge(nil), sf.Neighbors(x)...) {
			sf.RemoveEdge(x, h.To)
		}
	}

	// Components via map-based BFS, before (all vertices) and after
	// (survivors only).
	before := bfsComponents(sp, func(int) bool { return true })
	after := bfsComponents(sf, func(x int) bool { return !down[x] })
	if rep.ComponentsBefore != len(before) || rep.ComponentsAfter != len(after) {
		t.Fatalf("trial %d: components %d/%d, want %d/%d",
			trial, rep.ComponentsBefore, rep.ComponentsAfter, len(before), len(after))
	}
	if rep.LargestBefore != largest(before) || rep.LargestAfter != largest(after) {
		t.Fatalf("trial %d: largest %d/%d, want %d/%d",
			trial, rep.LargestBefore, rep.LargestAfter, largest(before), largest(after))
	}

	// Newly unreachable: survivors outside the main surviving fragment of
	// their pre-fault component (largest; ties toward the fragment holding
	// the smallest vertex).
	memberBefore := membership(before, n)
	memberAfter := membership(after, n)
	mainOf := make(map[int]int) // pre-fault component index -> post index
	for bi := range before {
		bestIdx, bestSize, bestMin := -1, -1, -1
		for ai, frag := range after {
			if !down[frag[0]] && memberBefore[frag[0]] == bi {
				sz, mn := len(frag), minOf(frag)
				if sz > bestSize || (sz == bestSize && mn < bestMin) {
					bestIdx, bestSize, bestMin = ai, sz, mn
				}
			}
		}
		mainOf[bi] = bestIdx
	}
	var wantUnreachable []int
	for x := 0; x < n; x++ {
		if down[x] || memberAfter[x] < 0 {
			continue
		}
		if mainOf[memberBefore[x]] != memberAfter[x] {
			wantUnreachable = append(wantUnreachable, x)
		}
	}
	if rep.UnreachableCount != len(wantUnreachable) || !equalInts(rep.Unreachable, wantUnreachable) {
		t.Fatalf("trial %d: unreachable %v (count %d), want %v",
			trial, rep.Unreachable, rep.UnreachableCount, wantUnreachable)
	}

	// Stretch claims: fresh unidirectional Dijkstra per surviving base
	// edge on the fault-applied spanner.
	srch := graph.NewSearcher(n)
	wantChecked, wantOver, wantDisc := 0, 0, 0
	wantWorst := 1.0
	for _, e := range graph.SortedEdges(g) {
		if down[e.U] || down[e.V] {
			continue
		}
		wantChecked++
		d, ok := srch.DijkstraTargetUni(sf, e.U, e.V, graph.Inf)
		if !ok {
			wantDisc++
			continue
		}
		s := d / e.W
		if s > tt {
			wantOver++
		}
		if s > wantWorst {
			wantWorst = s
		}
	}
	if rep.BaseEdgesChecked != wantChecked || rep.OverStretch != wantOver || rep.DisconnectedPairs != wantDisc {
		t.Fatalf("trial %d: checked/over/disc %d/%d/%d, want %d/%d/%d",
			trial, rep.BaseEdgesChecked, rep.OverStretch, rep.DisconnectedPairs,
			wantChecked, wantOver, wantDisc)
	}
	// Distances from the serving kernel may differ from the
	// unidirectional reference in the last ulp (different association
	// order), so float comparisons are relative.
	if !close(rep.WorstStretch, wantWorst) {
		t.Fatalf("trial %d: worst stretch %v, want %v", trial, rep.WorstStretch, wantWorst)
	}
	if want := wantOver + wantDisc; len(rep.Witnesses) != want {
		t.Fatalf("trial %d: %d witnesses, want %d", trial, len(rep.Witnesses), want)
	}
	for _, w := range rep.Witnesses {
		d, ok := srch.DijkstraTargetUni(sf, w.U, w.V, graph.Inf)
		if ok != w.Reachable || (ok && !close(d, w.Distance)) {
			t.Fatalf("trial %d: witness %+v, reference %v/%v", trial, w, d, ok)
		}
	}
	if rep.Truncated {
		t.Fatalf("trial %d: truncated without a time cap", trial)
	}
}

// bfsComponents groups included vertices into components, each sorted
// ascending, components ordered by smallest member.
func bfsComponents(g *graph.Graph, include func(int) bool) [][]int {
	seen := make(map[int]bool)
	var comps [][]int
	for root := 0; root < g.N(); root++ {
		if seen[root] || !include(root) {
			continue
		}
		comp := []int{root}
		seen[root] = true
		for i := 0; i < len(comp); i++ {
			for _, h := range g.Neighbors(comp[i]) {
				if !seen[h.To] && include(h.To) {
					seen[h.To] = true
					comp = append(comp, h.To)
				}
			}
		}
		// BFS discovery order is not sorted; normalize.
		for i := 1; i < len(comp); i++ {
			for j := i; j > 0 && comp[j] < comp[j-1]; j-- {
				comp[j], comp[j-1] = comp[j-1], comp[j]
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func membership(comps [][]int, n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = -1
	}
	for ci, comp := range comps {
		for _, x := range comp {
			m[x] = ci
		}
	}
	return m
}

func largest(comps [][]int) int {
	best := 0
	for _, c := range comps {
		if len(c) > best {
			best = len(c)
		}
	}
	return best
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
