package core_test

import (
	"fmt"
	"slices"
	"testing"

	"topoctl/internal/core"
	"topoctl/internal/dist"
	"topoctl/internal/geom"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// FuzzBuild runs both builders on degenerate input. The first byte's bit
// 0 picks ε ∈ {0.5, 1}, bits 1–2 the grey-zone model (all, none,
// Bernoulli p = 0.5, falloff) and bits 3–7 the grey-zone seed; each later
// byte, up to 48, is a point of a 16 × 16 grid of step α/8 (α = 0.75),
// low nibble x and high nibble y, so coincident points, zero-weight edges,
// collinear runs and tied lengths are common. On the α-quasi UBG of the
// points it checks:
//   - core.Build equals, edge for edge, the replay of its phases with H
//     in every phase and redundancy balls of radius t1·W_i
//     (core.ReplayPhases), and every replayed phase's scan within
//     pairRadius finds the reference's pairs;
//   - dist.Build with the greedy MIS equals core.Build, edges and Stats;
//   - the spanner's stretch is at most t.
//
// The seed corpus runs in the ordinary test pass. Its committed
// falloff-covered-alpha seed, found by a short fuzz run, fails the stretch
// check when the covered-edge filter tests |zv| ≤ 1 in place of ≤ α.
func FuzzBuild(f *testing.F) {
	// The minimal coincident case: two points at the origin and one
	// 5 steps (≈ 0.47) away.
	f.Add([]byte{0, 0x00, 0x00, 0x05})
	f.Add([]byte{1, 0x00, 0x00, 0x05})
	// A 4 × 4 lattice at spacing 3 steps with four of its points doubled.
	lattice := []byte{0}
	for y := byte(0); y < 4; y++ {
		for x := byte(0); x < 4; x++ {
			lattice = append(lattice, 3*y<<4|3*x)
		}
	}
	lattice = append(lattice, 0x00, 0x33, 0x36, 0x99)
	f.Add(lattice)
	f.Add(append([]byte{1}, lattice[1:]...))
	// The lattice on each other grey-zone model: none, Bernoulli with
	// seed 1, falloff with seed 2.
	for _, b := range []byte{1 << 1, 1<<3 | 2<<1, 2<<3 | 3<<1} {
		f.Add(append([]byte{b}, lattice[1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		const alpha = 0.75
		eps := []float64{0.5, 1}[data[0]%2]
		cfg := ubg.Config{Alpha: alpha, Model: ubg.ModelAll + ubg.Model(data[0]>>1&3), P: 0.5, Seed: int64(data[0] >> 3)}
		data = data[1:min(len(data), 49)]
		pts := make([]geom.Point, len(data))
		for i, b := range data {
			pts[i] = geom.Point{float64(b&15) * alpha / 8, float64(b>>4) * alpha / 8}
		}
		g, err := ubg.Build(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		at := fmt.Sprintf("points %v, ε=%v, %v grey zone, seed %d", pts, eps, cfg.Model, cfg.Seed)
		p, err := core.NewParams(eps, alpha, 2)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := core.Build(pts, g, core.Options{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Spanner.Edges()
		replay, err := core.ReplayPhases(pts, g, p)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if got := replay.Edges(); !slices.Equal(got, want) {
			t.Fatalf("%s: core.Build %v, replayed phases %v", at, want, got)
		}
		res, err := dist.Build(pts, g, dist.Options{Params: p, UseGreedyMIS: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Spanner.Edges(); !slices.Equal(got, want) || res.Stats != seq.Stats {
			t.Fatalf("%s: dist.Build %v %+v, core.Build %v %+v", at, got, res.Stats, want, seq.Stats)
		}
		if s := metrics.Stretch(g, seq.Spanner); s > p.T {
			t.Fatalf("%s: stretch %v exceeds t = %v", at, s, p.T)
		}
	})
}
