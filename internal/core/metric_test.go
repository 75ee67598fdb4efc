package core

import (
	"math"
	"testing"
)

func TestMetricWeightKnownValues(t *testing.T) {
	tests := []struct {
		m    Metric
		d    float64
		want float64
	}{
		{EuclideanMetric, 0.5, 0.5},
		{Metric{Coeff: 2, Gamma: 1}, 0.5, 1.0},
		{Metric{Coeff: 1, Gamma: 2}, 0.5, 0.25},
		{Metric{Coeff: 3, Gamma: 3}, 0.5, 0.375},
		{Metric{Coeff: 1, Gamma: 4}, 2, 16},
	}
	for _, tc := range tests {
		if got := tc.m.Weight(tc.d); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%+v.Weight(%v) = %v, want %v", tc.m, tc.d, got, tc.want)
		}
	}
}

func TestMetricValidate(t *testing.T) {
	for _, bad := range []Metric{{Coeff: 0, Gamma: 1}, {Coeff: -1, Gamma: 2}, {Coeff: 1, Gamma: 0.5}} {
		if bad.Validate() == nil {
			t.Errorf("%+v should be invalid", bad)
		}
	}
	if EuclideanMetric.Validate() != nil {
		t.Error("Euclidean metric rejected")
	}
	if !EuclideanMetric.IsEuclidean() || (Metric{Coeff: 2, Gamma: 1}).IsEuclidean() {
		t.Error("IsEuclidean wrong")
	}
}

// TestMetricWeightMonotone: the metric must preserve the length order —
// that is what lets the bin schedule double as a weight order.
func TestMetricWeightMonotone(t *testing.T) {
	for _, m := range []Metric{EuclideanMetric, {Coeff: 2, Gamma: 2}, {Coeff: 0.5, Gamma: 3}} {
		prev := -1.0
		for d := 0.01; d <= 1.0; d += 0.01 {
			w := m.Weight(d)
			if w <= prev {
				t.Fatalf("%+v not monotone at %v", m, d)
			}
			prev = w
		}
	}
}
