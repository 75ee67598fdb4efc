package core

import (
	"fmt"
	"math"
)

// Metric maps Euclidean edge lengths to edge weights. The paper's extension
// §1.6.2 observes the algorithm works unchanged when Euclidean distances
// |uv| are replaced by c·|uv|^γ for c > 0, γ >= 1 — the "energy metric"
// used to build power-efficient topologies (radio transmission energy grows
// polynomially with distance). γ = 1, c = 1 recovers the Euclidean case.
type Metric struct {
	// Coeff is c > 0.
	Coeff float64
	// Gamma is γ >= 1.
	Gamma float64
}

// EuclideanMetric is the identity metric (c = 1, γ = 1).
var EuclideanMetric = Metric{Coeff: 1, Gamma: 1}

// Validate checks c > 0 and γ >= 1.
func (m Metric) Validate() error {
	if m.Coeff <= 0 {
		return fmt.Errorf("core: metric coefficient must be positive, got %v", m.Coeff)
	}
	if m.Gamma < 1 {
		return fmt.Errorf("core: metric exponent must be >= 1, got %v", m.Gamma)
	}
	return nil
}

// Weight returns w = c·d^γ for Euclidean length d.
func (m Metric) Weight(d float64) float64 {
	if m.Gamma == 1 {
		return m.Coeff * d
	}
	return m.Coeff * math.Pow(d, m.Gamma)
}

// IsEuclidean reports whether the metric is the identity.
func (m Metric) IsEuclidean() bool { return m.Coeff == 1 && m.Gamma == 1 }
