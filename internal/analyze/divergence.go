package analyze

import (
	"fmt"
	"sort"
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

// Divergence diffs the spanner against the base graph and runs the
// stretch probe (ProbeStretch) over a deterministic sample of base edges.
func Divergence(v View, req DivergenceRequest, opts Options) (*DivergenceReport, error) {
	if req.Sample < 0 || req.Buckets < 0 || req.MaxWitnesses < 0 {
		return nil, fmt.Errorf("%w: negative knob", ErrBadQuery)
	}
	sample := req.Sample
	if sample == 0 {
		sample = DefaultSample
	}
	buckets := req.Buckets
	if buckets == 0 {
		buckets = 8
	}
	maxWitnesses := req.MaxWitnesses
	if maxWitnesses == 0 {
		maxWitnesses = 8
	}

	rep := &DivergenceReport{BaseEdges: v.Base.M(), SpannerEdges: v.Spanner.M()}
	for u := 0; u < v.Base.N(); u++ {
		for _, h := range v.Base.Neighbors(u) {
			if u < h.To && v.Spanner.HasEdge(u, h.To) {
				rep.SharedEdges++
			}
		}
	}
	rep.BaseOnly = rep.BaseEdges - rep.SharedEdges
	rep.SpannerOnly = rep.SpannerEdges - rep.SharedEdges
	rep.BaseWeight = v.Base.TotalWeight()
	rep.SpannerWeight = v.Spanner.TotalWeight()
	if rep.BaseWeight > 0 {
		rep.WeightRatio = rep.SpannerWeight / rep.BaseWeight
	}

	probe := ProbeStretch(v, sample, req.Seed, opts)
	rep.SampledEdges, rep.Exact, rep.Truncated = len(probe.Checked), probe.Exact, probe.Truncated
	rep.WorstStretch, rep.DisconnectedPairs = probe.Worst()

	hist := make([]HistBucket, buckets)
	span := v.T - 1
	if span <= 0 {
		span = 1
	}
	for b := range hist {
		hist[b].Lo = 1 + span*float64(b)/float64(buckets)
		hist[b].Hi = 1 + span*float64(b+1)/float64(buckets)
	}
	for _, w := range probe.Checked {
		switch {
		case !w.Reachable:
			// Counted in DisconnectedPairs.
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
	}
	rep.Histogram = hist
	probed := probe.Checked
	sort.Slice(probed, func(i, j int) bool { return witnessWorse(probed[i], probed[j]) })
	if len(probed) > maxWitnesses {
		probed = probed[:maxWitnesses]
	}
	rep.Witnesses = probed
	return rep, nil
}
