// Package geom provides the d-dimensional Euclidean geometry substrate used
// throughout the repository: points, distances, angles, Yao-style cone
// partitions, deterministic random point clouds, and a spatial hash grid for
// fixed-radius neighbor queries.
//
// The paper models a wireless network as a d-dimensional α-quasi unit ball
// graph whose vertices correspond to points in R^d; every geometric
// predicate the algorithms need (Euclidean distance, the angle test of the
// Czumaj–Zhao lemma, cone partitions for the degree proof) lives here.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in d-dimensional Euclidean space. The dimension is the
// slice length. Points are treated as immutable values by this package.
type Point []float64

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Dim returns the dimension of the point.
func (p Point) Dim() int { return len(p) }

// String renders the point as "(x1, x2, ...)" with 4-digit precision.
func (p Point) String() string {
	s := "("
	for i, c := range p {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.4f", c)
	}
	return s + ")"
}

// Sub returns p - q as a vector.
func Sub(p, q Point) Point {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	v := make(Point, len(p))
	for i := range p {
		v[i] = p[i] - q[i]
	}
	return v
}

// Scale returns s * p.
func Scale(p Point, s float64) Point {
	v := make(Point, len(p))
	for i := range p {
		v[i] = s * p[i]
	}
	return v
}

// Dot returns the inner product of p and q.
func Dot(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm returns the Euclidean norm of p interpreted as a vector.
func Norm(p Point) float64 { return math.Sqrt(Dot(p, p)) }

// DistSq returns the squared Euclidean distance between p and q.
func DistSq(p, q Point) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("geom: dimension mismatch %d vs %d", len(p), len(q)))
	}
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance |pq|.
func Dist(p, q Point) float64 { return math.Sqrt(DistSq(p, q)) }

// Angle returns the angle ∠(a, apex, b) in radians, i.e. the angle at apex
// between rays apex→a and apex→b. The result is in [0, π]. If either ray is
// degenerate (a == apex or b == apex) the angle is defined to be 0.
func Angle(apex, a, b Point) float64 {
	u := Sub(a, apex)
	v := Sub(b, apex)
	nu, nv := Norm(u), Norm(v)
	if nu == 0 || nv == 0 {
		return 0
	}
	c := Dot(u, v) / (nu * nv)
	// Clamp against floating-point drift before acos.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Normalize returns p scaled to unit norm. Panics if p is the zero vector.
func Normalize(p Point) Point {
	n := Norm(p)
	if n == 0 {
		panic("geom: cannot normalize zero vector")
	}
	return Scale(p, 1/n)
}

// Midpoint returns the midpoint of segment pq.
func Midpoint(p, q Point) Point {
	m := make(Point, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	return m
}
