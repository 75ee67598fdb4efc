package analyze

import (
	"fmt"
	"sort"
	"time"

	"topoctl/internal/fault"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// ImpactRequest describes a hypothetical failure: an explicit vertex set,
// a coordinate box (every live vertex inside dies), or both.
type ImpactRequest struct {
	// Vertices lists vertex ids assumed down. Entries naming already-dead
	// vertices are ignored; out-of-range ids are rejected.
	Vertices []int `json:"vertices,omitempty"`
	// BoxLo/BoxHi, when both set, select every live vertex whose position
	// lies inside the axis-aligned box (inclusive).
	BoxLo geom.Point `json:"box_lo,omitempty"`
	BoxHi geom.Point `json:"box_hi,omitempty"`
	// MaxWitnesses caps the over-stretch witness list (default 16).
	MaxWitnesses int `json:"max_witnesses,omitempty"`
	// MaxUnreachable caps the newly-unreachable vertex list; 0 means no
	// cap. The count is exact either way.
	MaxUnreachable int `json:"max_unreachable,omitempty"`
}

// ImpactReport answers "what breaks if these vertices die".
type ImpactReport struct {
	// Faulted is the resolved, sorted fault set actually applied.
	Faulted      []int `json:"faulted"`
	FaultedCount int   `json:"faulted_count"`
	// Survivors counts live vertices outside the fault set.
	Survivors int `json:"survivors"`
	// Component structure of the spanner over live vertices, before and
	// after the fault (faulted vertices excluded from the "after" side).
	ComponentsBefore int `json:"components_before"`
	ComponentsAfter  int `json:"components_after"`
	LargestBefore    int `json:"largest_before"`
	LargestAfter     int `json:"largest_after"`
	// Unreachable lists survivors cut off from the main surviving fragment
	// of their original component, sorted ascending (possibly capped;
	// UnreachableCount is exact).
	Unreachable      []int `json:"unreachable"`
	UnreachableCount int   `json:"unreachable_count"`
	// BaseEdgesChecked counts surviving base edges whose stretch was
	// re-verified against the faulted spanner.
	BaseEdgesChecked int `json:"base_edges_checked"`
	// OverStretch counts checked pairs still connected but with stretch
	// beyond t; DisconnectedPairs counts checked pairs with no surviving
	// spanner path at all.
	OverStretch       int     `json:"over_stretch"`
	DisconnectedPairs int     `json:"disconnected_pairs"`
	WorstStretch      float64 `json:"worst_stretch"`
	// Witnesses pins the worst offending pairs as evidence.
	Witnesses []StretchWitness `json:"witnesses,omitempty"`
	// Truncated is set when the time cap cut the stretch scan short.
	Truncated bool `json:"truncated"`
}

// Impact simulates the failure of a vertex set and reports the damage:
// component split, survivors newly cut off from the bulk of their original
// component, and surviving base-graph pairs whose spanner detour now
// exceeds the stretch bound t.
func Impact(v View, req ImpactRequest, opts Options) (*ImpactReport, error) {
	opts.normalize(v.n())
	faulted, err := resolveFaults(v, req)
	if err != nil {
		return nil, err
	}
	maxWitnesses := req.MaxWitnesses
	if maxWitnesses == 0 {
		maxWitnesses = 16
	}

	isFaulted := make([]bool, v.n())
	for _, x := range faulted {
		isFaulted[x] = true
	}
	rep := &ImpactReport{
		Faulted:      faulted,
		FaultedCount: len(faulted),
		Survivors:    v.liveCount() - len(faulted),
		WorstStretch: 1,
	}

	// Component split: label spanner components over live vertices before
	// the fault and over survivors after, then mark every survivor whose
	// post-fault fragment is not the main (largest) fragment of its
	// pre-fault component as newly unreachable.
	before := components(v.Spanner, v.alive)
	after := components(v.Spanner, func(x int) bool { return v.alive(x) && !isFaulted[x] })
	rep.ComponentsBefore, rep.LargestBefore = before.count, before.largest
	rep.ComponentsAfter, rep.LargestAfter = after.count, after.largest

	main := mainFragments(before, after)
	for x := 0; x < v.n(); x++ {
		if after.id[x] < 0 || isFaulted[x] {
			continue
		}
		if main[before.id[x]] != after.id[x] {
			rep.UnreachableCount++
			if req.MaxUnreachable <= 0 || len(rep.Unreachable) < req.MaxUnreachable {
				rep.Unreachable = append(rep.Unreachable, x)
			}
		}
	}

	// Stretch scan: materialize the faulted spanner once, then verify each
	// surviving base edge's detour in parallel. A mutable *graph.Graph is
	// safe for any number of concurrent readers.
	sf := fault.ApplyVertexFaults(v.Spanner, faulted)
	edges := graph.SortedEdges(v.Base)
	check := edges[:0]
	for _, e := range edges {
		if v.alive(e.U) && v.alive(e.V) && !isFaulted[e.U] && !isFaulted[e.V] {
			check = append(check, e)
		}
	}

	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = time.Now().Add(opts.MaxDuration)
	}
	results := make([]StretchWitness, len(check))
	filled := make([]bool, len(check))
	rep.BaseEdgesChecked, rep.Truncated = scanParallel(opts, len(check), deadline, func(srch *graph.Searcher, i int) {
		e := check[i]
		w := StretchWitness{U: e.U, V: e.V, BaseWeight: e.W}
		// Endpoints in different surviving fragments are unreachable; a
		// search from e.U would only exhaust its fragment to learn that.
		if after.id[e.U] == after.id[e.V] {
			if d, ok := srch.AStarTarget(sf, v.Points, e.U, e.V, v.T*e.W); ok {
				w.Reachable, w.Distance, w.Stretch = true, d, d/e.W
			} else if d, ok := srch.AStarTarget(sf, v.Points, e.U, e.V, graph.Inf); ok {
				// Connected but beyond the bound: an over-stretch offender.
				w.Reachable, w.Distance, w.Stretch = true, d, d/e.W
			}
		}
		results[i] = w
		filled[i] = true
	})

	var offenders []StretchWitness
	for i, w := range results {
		if !filled[i] {
			continue // slot skipped by a truncated scan
		}
		switch {
		case !w.Reachable:
			rep.DisconnectedPairs++
			offenders = append(offenders, w)
		case w.Stretch > v.T:
			rep.OverStretch++
			offenders = append(offenders, w)
		}
		if w.Reachable && w.Stretch > rep.WorstStretch {
			rep.WorstStretch = w.Stretch
		}
	}
	sort.Slice(offenders, func(i, j int) bool { return witnessWorse(offenders[i], offenders[j]) })
	if len(offenders) > maxWitnesses {
		offenders = offenders[:maxWitnesses]
	}
	rep.Witnesses = offenders
	return rep, nil
}

// resolveFaults expands an ImpactRequest into the sorted, deduplicated set
// of live vertices assumed down.
func resolveFaults(v View, req ImpactRequest) ([]int, error) {
	hasLo, hasHi := len(req.BoxLo) > 0, len(req.BoxHi) > 0
	if hasLo != hasHi {
		return nil, fmt.Errorf("%w: region needs both box_lo and box_hi", ErrBadQuery)
	}
	if hasLo && len(req.BoxLo) != len(req.BoxHi) {
		return nil, fmt.Errorf("%w: box_lo and box_hi dimensions differ", ErrBadQuery)
	}
	set := make(map[int]bool)
	for _, x := range req.Vertices {
		if x < 0 || x >= v.n() {
			return nil, fmt.Errorf("%w: vertex %d", ErrUnknownVertex, x)
		}
		if v.alive(x) {
			set[x] = true
		}
	}
	if hasLo {
		for x, p := range v.Points {
			if v.alive(x) && inBox(p, req.BoxLo, req.BoxHi) {
				set[x] = true
			}
		}
	}
	faulted := make([]int, 0, len(set))
	for x := range set {
		faulted = append(faulted, x)
	}
	sort.Ints(faulted)
	return faulted, nil
}

func inBox(p geom.Point, lo, hi geom.Point) bool {
	if len(p) < len(lo) {
		return false
	}
	for d := range lo {
		if p[d] < lo[d] || p[d] > hi[d] {
			return false
		}
	}
	return true
}

// componentLabels is a component labelling of a masked topology: id[x] is
// the component of vertex x (-1 for masked-out vertices), sizes[c] its
// population. Components are numbered in order of their smallest vertex,
// so ids are deterministic across representations.
type componentLabels struct {
	id      []int
	sizes   []int
	count   int
	largest int
}

// components labels connected components of t restricted to vertices where
// include returns true, by BFS from ascending roots.
func components(t graph.Topology, include func(int) bool) componentLabels {
	n := t.N()
	lab := componentLabels{id: make([]int, n)}
	for i := range lab.id {
		lab.id[i] = -1
	}
	var queue []int
	for root := 0; root < n; root++ {
		if lab.id[root] >= 0 || !include(root) {
			continue
		}
		c := lab.count
		lab.count++
		size := 1
		lab.id[root] = c
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, h := range t.Neighbors(x) {
				if lab.id[h.To] < 0 && include(h.To) {
					lab.id[h.To] = c
					size++
					queue = append(queue, h.To)
				}
			}
		}
		lab.sizes = append(lab.sizes, size)
		if size > lab.largest {
			lab.largest = size
		}
	}
	return lab
}

// mainFragments maps each pre-fault component to its main surviving
// fragment: the largest post-fault component inside it, ties broken toward
// the fragment containing the smallest vertex id (which is the
// lowest-numbered fragment, since both labellings number components by
// ascending root). Survivors outside the main fragment are "newly
// unreachable" — cut off from the bulk of their original component.
func mainFragments(before, after componentLabels) []int {
	main := make([]int, before.count)
	best := make([]int, before.count)
	for i := range main {
		main[i] = -1
	}
	for x := range after.id {
		a := after.id[x]
		if a < 0 || before.id[x] < 0 {
			continue
		}
		b := before.id[x]
		if main[b] == a {
			continue
		}
		// The first fragment seen for b is its lowest-numbered one; a later
		// fragment replaces it only when strictly larger.
		if sz := after.sizes[a]; main[b] < 0 || sz > best[b] {
			main[b], best[b] = a, sz
		}
	}
	return main
}
