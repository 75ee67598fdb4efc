// Package core implements the paper's primary contribution: the relaxed
// greedy spanner algorithm of §2. Given an n-node d-dimensional α-UBG and
// ε > 0 it computes a (1+ε)-spanner with O(1) maximum degree and weight
// O(w(MST)) by processing edges in O(log n) geometric weight bins; inside a
// bin edges are examined in arbitrary order against the spanner frozen at
// the end of the previous bin (lazy updating), which is exactly what makes
// the distributed implementation in internal/dist possible.
package core

import (
	"fmt"
	"math"
	"slices"
)

// Params bundles the derived constants of the algorithm. All constraints
// come from the paper's theorems:
//
//   - Theorem 10 (stretch) requires 0 < δ <= (t−t1)/4;
//   - Theorem 13 (weight) requires δ < (t−1)/(6+2t) and
//     1 < r < (tδ+1)/2 where tδ = t1·(1−2δ)/(1+6δ), which in turn forces
//     δ < (t1−1)/(6+2t1) so that tδ > 1;
//   - the covered-edge filter (Lemma 3, Czumaj–Zhao) requires 0 < θ < π/4
//     and t >= 1/(cos θ − sin θ).
type Params struct {
	// Eps is the requested stretch slack; the output is a (1+Eps)-spanner.
	Eps float64
	// T = 1 + Eps is the stretch factor t.
	T float64
	// T1 is the redundancy-removal stretch, 1 < T1 < T.
	T1 float64
	// Delta is the cluster-cover radius coefficient δ.
	Delta float64
	// R is the geometric bin ratio r > 1.
	R float64
	// TDelta is tδ = t1(1−2δ)/(1+6δ), recorded for the weight analysis.
	TDelta float64
	// Theta is the covered-edge half angle θ.
	Theta float64
	// Alpha is the α of the underlying α-UBG.
	Alpha float64
	// Dim is the Euclidean dimension d >= 2.
	Dim int
}

// NewParams derives a valid parameter set from ε, α and d, choosing each
// constant at a safe interior point of its feasible interval (midpoints and
// 0.9-fractions, so floating-point noise cannot push a constraint over its
// boundary).
func NewParams(eps, alpha float64, d int) (Params, error) {
	if eps <= 0 {
		return Params{}, fmt.Errorf("core: eps must be positive, got %v", eps)
	}
	if !(alpha > 0 && alpha <= 1) {
		return Params{}, fmt.Errorf("core: alpha must be in (0, 1], got %v", alpha)
	}
	if d < 2 {
		return Params{}, fmt.Errorf("core: dimension must be >= 2, got %d", d)
	}
	t := 1 + eps
	t1 := 1 + eps/2

	// δ must satisfy all three upper bounds; take half of the minimum.
	dMax := math.Min((t-t1)/4, math.Min((t-1)/(6+2*t), (t1-1)/(6+2*t1)))
	delta := dMax / 2

	tDelta := t1 * (1 - 2*delta) / (1 + 6*delta)
	if tDelta <= 1 {
		return Params{}, fmt.Errorf("core: internal error: tδ = %v <= 1 for eps=%v", tDelta, eps)
	}
	rMax := (tDelta + 1) / 2
	r := 1 + (rMax-1)/2
	if r <= 1 {
		return Params{}, fmt.Errorf("core: internal error: r = %v <= 1 for eps=%v", r, eps)
	}

	// θ: need cos θ − sin θ >= 1/t, i.e. √2·cos(θ+π/4) >= 1/t,
	// i.e. θ <= arccos(1/(√2·t)) − π/4; also θ < π/4.
	thetaMax := math.Acos(1/(math.Sqrt2*t)) - math.Pi/4
	theta := 0.9 * math.Min(thetaMax, math.Pi/4)
	if theta <= 0 {
		return Params{}, fmt.Errorf("core: internal error: theta = %v <= 0 for eps=%v", theta, eps)
	}

	return Params{
		Eps: eps, T: t, T1: t1,
		Delta: delta, R: r, TDelta: tDelta, Theta: theta,
		Alpha: alpha, Dim: d,
	}, nil
}

// Validate re-checks every theorem constraint; it returns nil exactly when
// the parameter set is admissible. Property tests drive random ε through
// NewParams and assert Validate passes.
func (p Params) Validate() error {
	switch {
	case p.T <= 1:
		return fmt.Errorf("core: t = %v <= 1", p.T)
	case p.T1 <= 1 || p.T1 >= p.T:
		return fmt.Errorf("core: t1 = %v outside (1, t)", p.T1)
	case p.Delta <= 0 || p.Delta > (p.T-p.T1)/4:
		return fmt.Errorf("core: delta = %v outside (0, (t-t1)/4]", p.Delta)
	case p.Delta >= (p.T-1)/(6+2*p.T):
		return fmt.Errorf("core: delta = %v >= (t-1)/(6+2t)", p.Delta)
	case p.TDelta <= 1:
		return fmt.Errorf("core: tδ = %v <= 1", p.TDelta)
	case p.R <= 1 || p.R >= (p.TDelta+1)/2:
		return fmt.Errorf("core: r = %v outside (1, (tδ+1)/2)", p.R)
	case p.Theta <= 0 || p.Theta >= math.Pi/4:
		return fmt.Errorf("core: theta = %v outside (0, π/4)", p.Theta)
	case math.Cos(p.Theta)-math.Sin(p.Theta) < 1/p.T:
		return fmt.Errorf("core: cos θ − sin θ = %v < 1/t", math.Cos(p.Theta)-math.Sin(p.Theta))
	case !(p.Alpha > 0 && p.Alpha <= 1):
		return fmt.Errorf("core: alpha = %v outside (0, 1]", p.Alpha)
	case p.Dim < 2:
		return fmt.Errorf("core: dim = %d < 2", p.Dim)
	}
	return nil
}

// Bins is the geometric bin schedule over Euclidean edge lengths: W_i =
// r^i·α/n, bin 0 holds lengths (0, α/n], bin i holds (W_{i−1}, W_i], and
// every edge of an α-UBG (length <= 1) lands in a bin 0..M.
type Bins struct {
	// W0 is the bin-0 ceiling α/n.
	W0 float64
	// R is the geometric ratio.
	R float64
	// M is the last bin index, M = ⌈log_r(n/α)⌉.
	M int
	// ceil[i] is W_i, for i in [0, M]: tabled once, so binning an edge is
	// a binary search, not a log and a pow.
	ceil []float64
}

// newBins builds the schedule for n vertices.
func newBins(n int, p Params) Bins {
	w0 := p.Alpha / float64(n)
	m := int(math.Ceil(math.Log(float64(n)/p.Alpha) / math.Log(p.R)))
	if m < 1 {
		m = 1
	}
	ceil := make([]float64, m+1)
	for i := range ceil {
		ceil[i] = w0 * math.Pow(p.R, float64(i))
	}
	return Bins{W0: w0, R: p.R, M: m, ceil: ceil}
}

// ceiling returns W_i, the top of bin i, for i in [0, M].
func (b Bins) ceiling(i int) float64 {
	return b.ceil[i]
}

// index returns the bin of an edge of Euclidean length d: the smallest i
// with d <= W_i (0 < d <= 1 expected; longer lengths are clamped into the
// last bin, shorter into 0).
func (b Bins) index(d float64) int {
	i, _ := slices.BinarySearch(b.ceil, d)
	return min(i, b.M)
}
