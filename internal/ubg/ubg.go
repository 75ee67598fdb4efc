// Package ubg generates d-dimensional α-quasi unit ball graphs, the network
// model of the paper (§1.1): vertices are points in R^d; every pair at
// distance <= α is connected, no pair at distance > 1 is connected, and
// pairs in the "grey zone" (α, 1] may or may not be connected — the model
// deliberately leaves that open to capture transmission errors, fading
// signal strength, and physical obstruction.
//
// This package makes the grey zone pluggable (Model) so experiments can
// sweep the entire space of behaviours the definition allows, including an
// adversarial obstacle model.
package ubg

import (
	"fmt"
	"math"
	"math/rand"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// Model selects how grey-zone pairs (distance in (α, 1]) are connected.
type Model int

// Grey-zone models.
const (
	// ModelAll connects every grey-zone pair; with α = 1 or ModelAll the
	// graph is the classical unit ball graph (UDG when d = 2).
	ModelAll Model = iota + 1
	// ModelNone connects no grey-zone pair; the graph is a UBG with radius α.
	ModelNone
	// ModelBernoulli connects each grey-zone pair independently with
	// probability P.
	ModelBernoulli
	// ModelFalloff connects a pair at distance x ∈ (α, 1] with probability
	// (1-x)/(1-α): certain at distance α, impossible at distance 1 — a
	// linear signal-strength fade.
	ModelFalloff
	// ModelObstacle drops grey-zone pairs whose segment crosses any of a
	// set of random axis-aligned slab obstacles — a crude but adversarial
	// physical-obstruction model (obstacles never block pairs within α,
	// preserving the α-UBG contract).
	ModelObstacle
)

// String names the model.
func (m Model) String() string {
	switch m {
	case ModelAll:
		return "all"
	case ModelNone:
		return "none"
	case ModelBernoulli:
		return "bernoulli"
	case ModelFalloff:
		return "falloff"
	case ModelObstacle:
		return "obstacle"
	default:
		return "unknown"
	}
}

// Config parameterizes α-UBG construction.
type Config struct {
	// Alpha is the guaranteed-connectivity radius, 0 < Alpha <= 1.
	Alpha float64
	// Model selects grey-zone behaviour (default ModelAll).
	Model Model
	// P is the Bernoulli parameter for ModelBernoulli.
	P float64
	// Seed drives grey-zone randomness (Bernoulli/falloff/obstacles).
	Seed int64
}

// obstacles is the obstacle count of ModelObstacle.
const obstacles = 8

// Validate checks config invariants.
func (c Config) Validate() error {
	if !(c.Alpha > 0 && c.Alpha <= 1) {
		return fmt.Errorf("ubg: alpha %v outside (0, 1]", c.Alpha)
	}
	if c.Model == ModelBernoulli && (c.P < 0 || c.P > 1) {
		return fmt.Errorf("ubg: bernoulli p %v outside [0, 1]", c.P)
	}
	return nil
}

// slab is an axis-aligned obstacle: it blocks segments that cross the
// hyperplane coordinate axis = pos within the band [lo, hi] on axis 0.
type slab struct {
	axis     int
	pos      float64
	band     [2]float64
	bandAxis int
}

// Build constructs the α-UBG over the given points as a mutable graph.
// Edge weights are Euclidean distances; only pairs within distance 1 are
// ever examined. Build is BuildFrozen + Thaw: the construction itself runs
// grid-cell-parallel straight into pre-sized CSR slabs (see parallel.go),
// and the thawed copy packs its rows into one shared slab, so the whole
// path performs O(cells) small allocations rather than O(n + m).
func Build(points []geom.Point, cfg Config) (*graph.Graph, error) {
	f, err := BuildFrozen(points, cfg)
	if err != nil {
		return nil, err
	}
	return f.Thaw(), nil
}

// obstacleSlabs draws the random axis-aligned obstacles of ModelObstacle.
// The draw sequence is pinned to cfg.Seed so obstacle instances are
// reproducible across the sequential and parallel build paths.
func obstacleSlabs(points []geom.Point, cfg Config) []slab {
	d := points[0].Dim()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Obstacles live in the bounding box of the points.
	lo, hi := boundingBox(points)
	slabs := make([]slab, 0, obstacles)
	for i := 0; i < obstacles; i++ {
		ax := rng.Intn(d)
		bandAx := (ax + 1) % d
		pos := lo[ax] + rng.Float64()*(hi[ax]-lo[ax])
		c := lo[bandAx] + rng.Float64()*(hi[bandAx]-lo[bandAx])
		half := (hi[bandAx] - lo[bandAx]) * (0.05 + 0.15*rng.Float64())
		slabs = append(slabs, slab{axis: ax, pos: pos, band: [2]float64{c - half, c + half}, bandAxis: bandAx})
	}
	return slabs
}

// pairRand returns a deterministic pseudo-random float in [0,1) for an
// unordered vertex pair, so edge presence is independent of iteration order.
func pairRand(seed int64, u, v int) float64 {
	if u > v {
		u, v = v, u
	}
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(u)*0xBF58476D1CE4E5B9 ^ uint64(v)*0x94D049BB133111EB
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// blocked reports whether segment pq crosses any obstacle slab.
func blocked(p, q geom.Point, slabs []slab) bool {
	for _, s := range slabs {
		a, b := p[s.axis], q[s.axis]
		if (a-s.pos)*(b-s.pos) > 0 {
			continue // both endpoints on the same side
		}
		den := b - a
		var cross float64
		if den == 0 {
			cross = p[s.bandAxis]
		} else {
			t := (s.pos - a) / den
			cross = p[s.bandAxis] + t*(q[s.bandAxis]-p[s.bandAxis])
		}
		if cross >= s.band[0] && cross <= s.band[1] {
			return true
		}
	}
	return false
}

func boundingBox(points []geom.Point) (lo, hi geom.Point) {
	d := points[0].Dim()
	lo = make(geom.Point, d)
	hi = make(geom.Point, d)
	copy(lo, points[0])
	copy(hi, points[0])
	for _, p := range points[1:] {
		for i, c := range p {
			if c < lo[i] {
				lo[i] = c
			}
			if c > hi[i] {
				hi[i] = c
			}
		}
	}
	return lo, hi
}

// Instance bundles a generated network: the points and the α-UBG over them.
type Instance struct {
	Points []geom.Point
	G      *graph.Graph
	Alpha  float64
	Dim    int
}

// GenerateConnected repeatedly generates a point cloud and α-UBG until the
// graph is connected, growing density (shrinking the bounding box) if
// needed. It is the workhorse instance generator for tests and experiments:
// the paper's guarantees are per-component, but connected instances make
// stretch measurement unambiguous.
func GenerateConnected(cloud geom.CloudConfig, cfg Config) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	side := cloud.Side
	if side <= 0 {
		// Default: aim for expected degree ~ 8 under radius alpha.
		side = DensitySide(cloud.N, cloud.Dim, cfg.Alpha, 8)
	}
	for attempt := 0; attempt < 40; attempt++ {
		c := cloud
		c.Side = side
		c.Seed = cloud.Seed + int64(attempt)*1000003
		pts := geom.GeneratePoints(c)
		g, err := Build(pts, cfg)
		if err != nil {
			return nil, err
		}
		if g.Connected() {
			return &Instance{Points: pts, G: g, Alpha: cfg.Alpha, Dim: cloud.Dim}, nil
		}
		side *= 0.9 // densify and retry
	}
	return nil, fmt.Errorf("ubg: could not generate a connected instance (n=%d d=%d alpha=%v)", cloud.N, cloud.Dim, cfg.Alpha)
}

// DensitySide returns the box side so that n balls of radius r in
// dimension d give expected degree approximately deg. It is the density
// target shared by GenerateConnected, the churn scenario runner, and the
// churn benchmarks.
func DensitySide(n, d int, r float64, deg float64) float64 {
	// Expected neighbors ≈ n * volume(ball r) / side^d = deg.
	vol := ballVolume(d, r)
	side := math.Pow(float64(n)*vol/deg, 1/float64(d))
	if side < r {
		side = r
	}
	return side
}

func ballVolume(d int, r float64) float64 {
	// V_d(r) = π^{d/2} / Γ(d/2+1) · r^d
	return math.Pow(math.Pi, float64(d)/2) / math.Gamma(float64(d)/2+1) * math.Pow(r, float64(d))
}
