package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minMax returns the extremes of xs (0, 0 when empty).
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to count as supported by the sample.
const tailBeyond = 10

// percentile returns the p-quantile (0 < p ≤ 1) of an ascending slice by
// the nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tail returns the p-quantile of an ascending slice, lowered to the
// highest rank that still leaves tailBeyond samples above it when the
// sample is too small to support p itself. The second result is the
// quantile actually reported (p when supported; 0 with no samples).
func tail(sorted []float64, p float64) (value, reported float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if limit := n - 1 - tailBeyond; i > limit {
		i = max(limit, (n-1)/2) // never report below the median
	}
	return sorted[i], float64(i+1) / float64(n)
}

// summary is one reported figure with the spread it was drawn from: the
// extremes and the median over a phase's windows or a set-up's repetitions.
type summary struct {
	Value  float64 `json:"value"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
}

// summarize reports the median of xs.
func summarize(xs []float64) summary {
	lo, hi := minMax(xs)
	m := median(xs)
	return summary{Value: m, Min: lo, Max: hi, Median: m}
}

// best reports the best window of xs — the lowest when lower is better,
// else the highest. The sandbox's loopback round trip flips between a fast
// and a slow mode every few seconds (a property of the host, not of the
// code under test), and the median over a run's windows lands on whichever
// mode held the majority; the best window is the fast mode in every run,
// which is what a change to the code moves.
func best(xs []float64, lowerIsBetter bool) summary {
	s := summarize(xs)
	s.Value = s.Max
	if lowerIsBetter {
		s.Value = s.Min
	}
	return s
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of the median, with the quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method). It needs
// at least two values; fewer give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
