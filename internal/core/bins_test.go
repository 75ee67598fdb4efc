package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testBins(t *testing.T, n int, eps, alpha float64) Bins {
	t.Helper()
	p, err := NewParams(eps, alpha, 2)
	if err != nil {
		t.Fatal(err)
	}
	return newBins(n, p)
}

// TestBinIndexPartitionProperty: every length in (0, 1] lands in exactly
// the bin whose interval contains it: bin 0 is (0, W0], bin i is
// (W_{i-1}, W_i].
func TestBinIndexPartitionProperty(t *testing.T) {
	b := testBins(t, 500, 0.5, 0.75)
	rng := rand.New(rand.NewSource(70))
	f := func(_ uint8) bool {
		d := rng.Float64()
		if d == 0 {
			d = 1e-9
		}
		i := b.index(d)
		if i < 0 || i > b.M {
			return false
		}
		if i == 0 {
			return d <= b.W0
		}
		return d > b.ceiling(i-1) && d <= b.ceiling(i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestBinBoundariesExact(t *testing.T) {
	b := testBins(t, 100, 0.5, 0.8)
	// Exactly W0 goes to bin 0.
	if got := b.index(b.W0); got != 0 {
		t.Errorf("index(W0) = %d, want 0", got)
	}
	// Just above W0 goes to bin 1.
	if got := b.index(b.W0 * 1.0000001); got != 1 {
		t.Errorf("index(W0+) = %d, want 1", got)
	}
	// Exactly W_i goes to bin i.
	for i := 1; i <= 5; i++ {
		if got := b.index(b.ceiling(i)); got != i {
			t.Errorf("index(W_%d) = %d, want %d", i, got, i)
		}
	}
}

// TestBinsCoverUnitLength: W_M must reach 1 so every α-UBG edge (length
// <= 1) has a bin.
func TestBinsCoverUnitLength(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		for _, alpha := range []float64{0.3, 0.75, 1.0} {
			b := testBins(t, n, 0.5, alpha)
			if b.ceiling(b.M) < 1-1e-9 {
				t.Errorf("n=%d alpha=%v: W_M = %v < 1", n, alpha, b.ceiling(b.M))
			}
			if got := b.index(1.0); got > b.M {
				t.Errorf("n=%d alpha=%v: index(1) = %d > M = %d", n, alpha, got, b.M)
			}
		}
	}
}

// TestBinCountLogarithmic: M must scale as log n (the phase bound the
// paper's round complexity rests on).
func TestBinCountLogarithmic(t *testing.T) {
	m100 := testBins(t, 100, 0.5, 0.75).M
	m10k := testBins(t, 10000, 0.5, 0.75).M
	// log(10000)/log(100) = 2, allow slack.
	if float64(m10k) > 2.6*float64(m100) {
		t.Errorf("bin count not logarithmic: M(100)=%d M(10000)=%d", m100, m10k)
	}
}

func TestBinsMonotoneCeilings(t *testing.T) {
	b := testBins(t, 200, 1.0, 0.6)
	for i := 1; i <= b.M; i++ {
		if b.ceiling(i) <= b.ceiling(i-1) {
			t.Fatalf("ceilings not increasing at %d", i)
		}
	}
}
