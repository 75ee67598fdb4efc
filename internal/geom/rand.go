package geom

import (
	"math"
	"math/rand"
)

// Cloud describes a synthetic point-cloud workload. The experiment tables
// (internal/exp) are all driven by clouds generated here with fixed seeds so
// every table is exactly regenerable.
type Cloud int

// Supported cloud distributions.
const (
	// CloudUniform scatters points uniformly in the unit cube [0,1]^d
	// scaled by Side.
	CloudUniform Cloud = iota + 1
	// CloudClustered places points around a few Gaussian hotspots; this is
	// the classical sensor-deployment pattern (dense clusters joined by
	// sparse bridges) that stresses the cluster-cover machinery.
	CloudClustered
	// CloudCorridor places points along a thin corridor, producing long
	// hop paths (worst case for round counts of gather primitives).
	CloudCorridor
	// CloudGridJitter places points on a jittered lattice, the standard
	// "engineered deployment" pattern with near-uniform density.
	CloudGridJitter
)

// String returns the workload name.
func (c Cloud) String() string {
	switch c {
	case CloudUniform:
		return "uniform"
	case CloudClustered:
		return "clustered"
	case CloudCorridor:
		return "corridor"
	case CloudGridJitter:
		return "grid-jitter"
	default:
		return "unknown"
	}
}

// CloudConfig parameterizes point generation.
type CloudConfig struct {
	Kind Cloud
	// N is the number of points.
	N int
	// Dim is the space dimension d >= 2.
	Dim int
	// Side scales the bounding region; points land in [0, Side]^d (the
	// corridor cloud uses a Side x (Side/8) x ... box). Choosing Side
	// relative to the unit communication radius controls network density.
	Side float64
	// Seed makes generation deterministic.
	Seed int64
}

// hotspots is the number of clusters of CloudClustered.
const hotspots = 5

// GeneratePoints produces a deterministic point cloud for the config.
func GeneratePoints(cfg CloudConfig) []Point {
	if cfg.N <= 0 {
		return nil
	}
	if cfg.Dim < 1 {
		panic("geom: cloud dimension must be >= 1")
	}
	if cfg.Side <= 0 {
		cfg.Side = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := make([]Point, cfg.N)
	switch cfg.Kind {
	case CloudClustered:
		centers := make([]Point, hotspots)
		for i := range centers {
			centers[i] = uniformPoint(rng, cfg.Dim, cfg.Side)
		}
		sigma := cfg.Side / (3 * math.Sqrt(hotspots))
		for i := range pts {
			c := centers[rng.Intn(hotspots)]
			p := make(Point, cfg.Dim)
			for j := range p {
				p[j] = clamp(c[j]+rng.NormFloat64()*sigma, 0, cfg.Side)
			}
			pts[i] = p
		}
	case CloudCorridor:
		for i := range pts {
			p := make(Point, cfg.Dim)
			p[0] = rng.Float64() * cfg.Side
			for j := 1; j < cfg.Dim; j++ {
				p[j] = rng.Float64() * cfg.Side / 8
			}
			pts[i] = p
		}
	case CloudGridJitter:
		// Lay points on a near-square lattice with ±20% jitter.
		per := int(math.Ceil(math.Pow(float64(cfg.N), 1/float64(cfg.Dim))))
		if per < 1 {
			per = 1
		}
		step := cfg.Side / float64(per)
		idx := make([]int, cfg.Dim)
		for i := range pts {
			p := make(Point, cfg.Dim)
			for j := range p {
				p[j] = clamp((float64(idx[j])+0.5+0.4*(rng.Float64()-0.5))*step, 0, cfg.Side)
			}
			pts[i] = p
			for j := 0; j < cfg.Dim; j++ {
				idx[j]++
				if idx[j] < per {
					break
				}
				idx[j] = 0
			}
		}
	default: // CloudUniform
		for i := range pts {
			pts[i] = uniformPoint(rng, cfg.Dim, cfg.Side)
		}
	}
	return pts
}

func uniformPoint(rng *rand.Rand, d int, side float64) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.Float64() * side
	}
	return p
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
