package analyze

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"topoctl/internal/graph"
)

// DivergenceRequest tunes the spanner-vs-base comparison.
type DivergenceRequest struct {
	// Sample is how many base edges to probe for stretch (default 256); a
	// sample at least the base edge count makes the scan exact.
	Sample int `json:"sample,omitempty"`
	// Seed selects the deterministic sample (same seed, same pairs).
	Seed int64 `json:"seed,omitempty"`
	// Buckets is the stretch-histogram resolution over [1, t] (default 8).
	Buckets int `json:"buckets,omitempty"`
	// MaxWitnesses caps the worst-pair witness list (default 8).
	MaxWitnesses int `json:"max_witnesses,omitempty"`
}

// HistBucket is one stretch-histogram bin over [Lo, Hi).
type HistBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

// DivergenceReport compares the maintained spanner against the base graph:
// the edge diff, total-weight ratio, and a sampled distribution of the
// realized stretch over base edges.
type DivergenceReport struct {
	BaseEdges    int `json:"base_edges"`
	SpannerEdges int `json:"spanner_edges"`
	// SharedEdges/BaseOnly/SpannerOnly partition the edge sets.
	SharedEdges int `json:"shared_edges"`
	BaseOnly    int `json:"base_only"`
	SpannerOnly int `json:"spanner_only"`
	// Weight totals and their ratio (the spanner's "lightness" here).
	BaseWeight    float64 `json:"base_weight"`
	SpannerWeight float64 `json:"spanner_weight"`
	WeightRatio   float64 `json:"weight_ratio"`
	// SampledEdges is how many base edges were probed; Exact is set when
	// that is every base edge.
	SampledEdges int  `json:"sampled_edges"`
	Exact        bool `json:"exact"`
	// Histogram bins realized stretch over [1, t]; OverBound counts
	// probed pairs beyond t, DisconnectedPairs pairs the spanner cannot
	// connect at all.
	Histogram         []HistBucket `json:"histogram"`
	OverBound         int          `json:"over_bound"`
	DisconnectedPairs int          `json:"disconnected_pairs"`
	WorstStretch      float64      `json:"worst_stretch"`
	// Witnesses pins the worst sampled pairs.
	Witnesses []StretchWitness `json:"witnesses,omitempty"`
	// Truncated is set when the time cap cut the probe short.
	Truncated bool `json:"truncated"`
}

// Divergence diffs the spanner against the base graph and probes a
// deterministic sample of base edges for their realized spanner stretch.
func Divergence(v View, req DivergenceRequest, opts Options) (*DivergenceReport, error) {
	opts.normalize(v.n())
	if req.Sample < 0 || req.Buckets < 0 || req.MaxWitnesses < 0 {
		return nil, fmt.Errorf("%w: negative knob", ErrBadQuery)
	}
	sample := req.Sample
	if sample == 0 {
		sample = 256
	}
	buckets := req.Buckets
	if buckets == 0 {
		buckets = 8
	}
	maxWitnesses := req.MaxWitnesses
	if maxWitnesses == 0 {
		maxWitnesses = 8
	}

	rep := &DivergenceReport{WorstStretch: 1}
	baseEdges := graph.SortedEdges(v.Base)
	rep.BaseEdges = len(baseEdges)
	rep.SpannerEdges = v.Spanner.M()
	for _, e := range baseEdges {
		rep.BaseWeight += e.W
		if v.Spanner.HasEdge(e.U, e.V) {
			rep.SharedEdges++
		} else {
			rep.BaseOnly++
		}
	}
	rep.SpannerWeight = v.Spanner.TotalWeight()
	rep.SpannerOnly = rep.SpannerEdges - rep.SharedEdges
	if rep.BaseWeight > 0 {
		rep.WeightRatio = rep.SpannerWeight / rep.BaseWeight
	}

	// Deterministic sample: partial Fisher–Yates over a copy of the sorted
	// edge list, so the same seed probes the same pairs on either
	// representation.
	probe := baseEdges
	if sample < len(baseEdges) {
		rng := rand.New(rand.NewSource(req.Seed))
		probe = append([]graph.Edge(nil), baseEdges...)
		for i := 0; i < sample; i++ {
			j := i + rng.Intn(len(probe)-i)
			probe[i], probe[j] = probe[j], probe[i]
		}
		probe = probe[:sample]
	} else {
		rep.Exact = true
	}

	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = time.Now().Add(opts.MaxDuration)
	}
	results := make([]StretchWitness, len(probe))
	filled := make([]bool, len(probe))
	rep.SampledEdges, rep.Truncated = scanParallel(opts, len(probe), deadline, func(srch *graph.Searcher, i int) {
		e := probe[i]
		w := StretchWitness{U: e.U, V: e.V, BaseWeight: e.W}
		if d, ok := srch.AStarTarget(v.Spanner, v.Points, e.U, e.V, graph.Inf); ok {
			w.Reachable, w.Distance = true, d
			if e.W > 0 {
				w.Stretch = d / e.W
			} else {
				w.Stretch = 1
			}
		}
		results[i] = w
		filled[i] = true
	})
	if rep.Truncated {
		rep.Exact = false
	}

	hist := make([]HistBucket, buckets)
	span := v.T - 1
	if span <= 0 {
		span = 1
	}
	for b := range hist {
		hist[b].Lo = 1 + span*float64(b)/float64(buckets)
		hist[b].Hi = 1 + span*float64(b+1)/float64(buckets)
	}
	var probed []StretchWitness
	for i, w := range results {
		if !filled[i] {
			continue
		}
		probed = append(probed, w)
		switch {
		case !w.Reachable:
			rep.DisconnectedPairs++
		case w.Stretch > v.T:
			rep.OverBound++
		default:
			b := int(float64(buckets) * (w.Stretch - 1) / span)
			if b >= buckets {
				b = buckets - 1
			}
			if b < 0 {
				b = 0
			}
			hist[b].Count++
		}
		if w.Reachable && w.Stretch > rep.WorstStretch {
			rep.WorstStretch = w.Stretch
		}
	}
	rep.Histogram = hist
	sort.Slice(probed, func(i, j int) bool { return witnessWorse(probed[i], probed[j]) })
	if len(probed) > maxWitnesses {
		probed = probed[:maxWitnesses]
	}
	rep.Witnesses = probed
	return rep, nil
}
