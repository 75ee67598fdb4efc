package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDistKnownValues(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"345 triangle", Point{0, 0}, Point{3, 4}, 5},
		{"3d diagonal", Point{0, 0, 0}, Point{1, 1, 1}, math.Sqrt(3)},
		{"negative coords", Point{-1, -1}, Point{1, 1}, 2 * math.Sqrt2},
		{"4d", Point{0, 0, 0, 0}, Point{1, 1, 1, 1}, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.p, tc.q); !almostEqual(got, tc.want, 1e-12) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
			if got := DistSq(tc.p, tc.q); !almostEqual(got, tc.want*tc.want, 1e-12) {
				t.Errorf("DistSq = %v, want %v", got, tc.want*tc.want)
			}
		})
	}
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dist(Point{0, 0}, Point{0, 0, 0})
}

// randPoint produces a bounded random point for property tests.
func randPoint(rng *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.Float64()*20 - 10
	}
	return p
}

func TestDistMetricAxiomsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(dimSeed uint8) bool {
		d := 2 + int(dimSeed)%3
		p, q, r := randPoint(rng, d), randPoint(rng, d), randPoint(rng, d)
		symm := almostEqual(Dist(p, q), Dist(q, p), 1e-12)
		ident := Dist(p, p) == 0
		nonneg := Dist(p, q) >= 0
		tri := Dist(p, r) <= Dist(p, q)+Dist(q, r)+1e-9
		return symm && ident && nonneg && tri
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAngleKnownValues(t *testing.T) {
	tests := []struct {
		name       string
		apex, a, b Point
		want       float64
	}{
		{"right angle", Point{0, 0}, Point{1, 0}, Point{0, 1}, math.Pi / 2},
		{"straight line", Point{0, 0}, Point{1, 0}, Point{-1, 0}, math.Pi},
		{"zero angle", Point{0, 0}, Point{1, 0}, Point{2, 0}, 0},
		{"45 degrees", Point{0, 0}, Point{1, 0}, Point{1, 1}, math.Pi / 4},
		{"degenerate a", Point{0, 0}, Point{0, 0}, Point{1, 1}, 0},
		{"3d right angle", Point{0, 0, 0}, Point{1, 0, 0}, Point{0, 0, 5}, math.Pi / 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Angle(tc.apex, tc.a, tc.b); !almostEqual(got, tc.want, 1e-9) {
				t.Errorf("Angle = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestAngleRangeAndSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(dimSeed uint8) bool {
		d := 2 + int(dimSeed)%3
		apex, a, b := randPoint(rng, d), randPoint(rng, d), randPoint(rng, d)
		ang := Angle(apex, a, b)
		if ang < 0 || ang > math.Pi {
			return false
		}
		return almostEqual(ang, Angle(apex, b, a), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAngleLawOfCosinesConsistency cross-checks Angle against the law of
// cosines — the identity the distributed algorithm relies on when it
// evaluates the covered-edge test from pairwise distances alone.
func TestAngleLawOfCosinesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		apex, a, b := randPoint(rng, 2), randPoint(rng, 2), randPoint(rng, 2)
		da, db, dab := Dist(apex, a), Dist(apex, b), Dist(a, b)
		if da < 1e-9 || db < 1e-9 {
			continue
		}
		cosv := (da*da + db*db - dab*dab) / (2 * da * db)
		if cosv > 1 {
			cosv = 1
		} else if cosv < -1 {
			cosv = -1
		}
		want := math.Acos(cosv)
		if got := Angle(apex, a, b); !almostEqual(got, want, 1e-7) {
			t.Fatalf("law of cosines mismatch: Angle=%v law=%v", got, want)
		}
	}
}

func TestVectorOps(t *testing.T) {
	p, q := Point{1, 2, 3}, Point{4, 5, 6}
	if got := sub(q, p); got[0] != 3 || got[1] != 3 || got[2] != 3 {
		t.Errorf("sub = %v", got)
	}
	if got := scale(p, 2); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("scale = %v", got)
	}
	if got := dot(p, q); got != 32 {
		t.Errorf("dot = %v, want 32", got)
	}
	if got := norm(Point{3, 4}); got != 5 {
		t.Errorf("norm = %v, want 5", got)
	}
	if got := Midpoint(Point{0, 0}, Point{2, 4}); got[0] != 1 || got[1] != 2 {
		t.Errorf("Midpoint = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := normalize(Point{3, 4})
	if !almostEqual(norm(v), 1, 1e-12) {
		t.Errorf("normalize norm = %v", norm(v))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero vector")
		}
	}()
	normalize(Point{0, 0})
}

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1.0000, 2.5000)" {
		t.Errorf("String = %q", got)
	}
}
