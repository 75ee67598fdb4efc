package geom

import (
	"math"
	"math/rand"
)

// ConePartition partitions directions in R^d into cones of half-angle at
// most theta around a set of axis directions. It supports the two uses the
// paper makes of Yao-style partitions: the degree argument of Theorem 11
// (any two directions assigned to the same cone subtend an angle <= theta at
// the apex) and the Yao-graph baseline.
//
// For d == 2 the axes are exact sector bisectors; for d >= 3 the axes are a
// deterministic spherical code (well-spread unit vectors) dense enough that
// every direction is within theta/2 of some axis, which guarantees the
// same-cone angle bound by the triangle inequality on the sphere.
type ConePartition struct {
	// Axes are the unit axis directions of the cones.
	Axes []Point
	// Theta is the guaranteed angular diameter bound: two vectors assigned
	// to the same cone subtend an angle of at most Theta.
	Theta float64
	dim   int
}

// NewConePartition constructs a cone partition of R^d directions with
// angular diameter at most theta. theta must lie in (0, π).
func NewConePartition(d int, theta float64) *ConePartition {
	if d < 2 {
		panic("geom: cone partition requires d >= 2")
	}
	if theta <= 0 || theta >= math.Pi {
		panic("geom: cone partition requires theta in (0, pi)")
	}
	cp := &ConePartition{Theta: theta, dim: d}
	if d == 2 {
		// Exact planar sectors of angle theta (diameter theta).
		k := int(math.Ceil(2 * math.Pi / theta))
		for i := 0; i < k; i++ {
			phi := (float64(i) + 0.5) * 2 * math.Pi / float64(k)
			cp.Axes = append(cp.Axes, Point{math.Cos(phi), math.Sin(phi)})
		}
		return cp
	}
	// d >= 3: deterministic spherical code. We greedily keep points of a
	// seeded random sequence on S^{d-1}, saturating until a long run of
	// samples finds no direction farther than the separation from every
	// kept vector. The separation carries a 5% safety margin below theta/2
	// because saturation certifies the covering radius only statistically.
	cp.Axes = sphericalCode(d, 0.95*theta/2)
	return cp
}

// sphericalCode returns a set of unit vectors in R^d such that every unit
// vector is within angular distance sep of some code vector. It uses a
// seeded random saturation process: candidate directions are sampled until a
// long run produces no candidate farther than sep from all kept vectors.
func sphericalCode(d int, sep float64) []Point {
	rng := rand.New(rand.NewSource(0x5EED))
	var code []Point
	cosSep := math.Cos(sep)
	misses := 0
	// A run of consecutive covered samples this long certifies (with very
	// high probability) that the covering radius is at most sep.
	const certifyRun = 8192
	for misses < certifyRun {
		v := randomUnitVector(rng, d)
		covered := false
		for _, a := range code {
			if Dot(v, a) >= cosSep {
				covered = true
				break
			}
		}
		if covered {
			misses++
			continue
		}
		code = append(code, v)
		misses = 0
	}
	return code
}

// randomUnitVector samples a uniform direction on S^{d-1}.
func randomUnitVector(rng *rand.Rand, d int) Point {
	for {
		v := make(Point, d)
		var n float64
		for i := range v {
			v[i] = rng.NormFloat64()
			n += v[i] * v[i]
		}
		if n > 1e-12 {
			return Scale(v, 1/math.Sqrt(n))
		}
	}
}

// Assign returns the index of the cone (axis) to which direction v belongs:
// the axis maximizing the inner product with v. v must be non-zero.
func (cp *ConePartition) Assign(v Point) int {
	u := Normalize(v)
	best, bestDot := 0, math.Inf(-1)
	for i, a := range cp.Axes {
		if dt := Dot(u, a); dt > bestDot {
			best, bestDot = i, dt
		}
	}
	return best
}

// AssignEdge returns the cone index of the direction from p toward q.
func (cp *ConePartition) AssignEdge(p, q Point) int {
	return cp.Assign(Sub(q, p))
}
