package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestConePartition2DSameConeAngle verifies the property Theorem 11's
// degree proof needs: any two directions assigned to the same cone subtend
// an angle of at most theta.
func TestConePartition2DSameConeAngle(t *testing.T) {
	for _, theta := range []float64{0.2, 0.5, math.Pi / 4, 1.0} {
		cp := NewConePartition(2, theta)
		rng := rand.New(rand.NewSource(42))
		apex := Point{0, 0}
		// Bucket random directions by cone and verify pairwise angles.
		buckets := make(map[int][]Point)
		for i := 0; i < 2000; i++ {
			v := randomUnitVector(rng, 2)
			buckets[cp.Assign(v)] = append(buckets[cp.Assign(v)], v)
		}
		for c, vs := range buckets {
			for i := 0; i < len(vs); i++ {
				for j := i + 1; j < len(vs); j++ {
					if ang := Angle(apex, vs[i], vs[j]); ang > theta+1e-9 {
						t.Fatalf("theta=%v cone %d: angle %v > theta", theta, c, ang)
					}
				}
			}
		}
	}
}

func TestConePartition2DConeCount(t *testing.T) {
	tests := []struct {
		theta float64
		want  int
	}{
		{math.Pi / 2, 4},
		{math.Pi / 3, 6},
		{math.Pi / 4, 8},
		{1.0, 7}, // ceil(2π/1) = 7
	}
	for _, tc := range tests {
		cp := NewConePartition(2, tc.theta)
		if got := len(cp.Axes); got != tc.want {
			t.Errorf("theta=%v: cones = %d, want %d", tc.theta, got, tc.want)
		}
	}
}

// TestConePartition3DSameConeAngle verifies the same-cone angular bound in
// R^3, where the axes come from the spherical code.
func TestConePartition3DSameConeAngle(t *testing.T) {
	theta := 0.8
	cp := NewConePartition(3, theta)
	rng := rand.New(rand.NewSource(7))
	apex := Point{0, 0, 0}
	buckets := make(map[int][]Point)
	for i := 0; i < 1500; i++ {
		v := randomUnitVector(rng, 3)
		c := cp.Assign(v)
		buckets[c] = append(buckets[c], v)
	}
	for c, vs := range buckets {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				if ang := Angle(apex, vs[i], vs[j]); ang > theta+1e-9 {
					t.Fatalf("cone %d: angle %v > theta %v", c, ang, theta)
				}
			}
		}
	}
	if len(cp.Axes) < 6 {
		t.Errorf("suspiciously few cones for theta=%v in 3d: %d", theta, len(cp.Axes))
	}
}

// TestConePartitionCovering3D: every direction must land within theta/2 of
// its assigned axis, so assignment never fails and the covering radius holds.
func TestConePartitionCovering3D(t *testing.T) {
	theta := 0.9
	cp := NewConePartition(3, theta)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		v := randomUnitVector(rng, 3)
		axis := cp.Axes[cp.Assign(v)]
		if ang := math.Acos(clampUnit(dot(v, axis))); ang > theta/2+1e-6 {
			t.Fatalf("direction %v is %v from nearest axis, want <= %v", v, ang, theta/2)
		}
	}
}

func clampUnit(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

func TestConePartitionAssignEdge(t *testing.T) {
	cp := NewConePartition(2, math.Pi/2)
	// Edge pointing along +x and its reverse must land in different cones.
	a, b := Point{0, 0}, Point{1, 0}
	if cp.AssignEdge(a, b) == cp.AssignEdge(b, a) {
		t.Error("opposite directions assigned to the same cone for theta=π/2")
	}
}

func TestConePartitionInvalidArgsPanic(t *testing.T) {
	for _, tc := range []struct {
		d     int
		theta float64
	}{{1, 0.5}, {2, 0}, {2, math.Pi}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for d=%d theta=%v", tc.d, tc.theta)
				}
			}()
			NewConePartition(tc.d, tc.theta)
		}()
	}
}

func TestRandomUnitVectorIsUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 2; d <= 5; d++ {
		for i := 0; i < 50; i++ {
			v := randomUnitVector(rng, d)
			if math.Abs(norm(v)-1) > 1e-9 {
				t.Fatalf("d=%d: norm %v", d, norm(v))
			}
		}
	}
}
