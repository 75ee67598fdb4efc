package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// spannerDigest is the SHA-256 of g's edge list in sorted (U, V) order,
// each endpoint as a little-endian uint32. Weights are left out: the pin is
// on which edges the builder keeps, the same style as the cost-model pin.
func spannerDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	es := g.EdgesUnordered()
	slices.SortFunc(es, func(a, b graph.Edge) int { return cmp.Or(a.U-b.U, a.V-b.V) })
	for _, e := range es {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedInstance is the build-8k instance shape at size n: a uniform cloud
// at expected α-degree 8, α = 0.75, every grey-zone pair connected.
func pinnedInstance(t testing.TB, n int, seed int64) *ubg.Instance {
	return shapeInstance(t, geom.CloudUniform, n, seed, 0.75)
}

// shapeInstance draws an α = 0.75 UBG, every grey-zone pair connected,
// over the given cloud in a box sized for expected degree 8 at radius
// sideRadius: 0.75 is the build-8k shape, 1 the builder benchmarks'
// (BenchmarkCoreBuild, TestWorkBudget).
func shapeInstance(t testing.TB, cloud geom.Cloud, n int, seed int64, sideRadius float64) *ubg.Instance {
	t.Helper()
	inst, err := ubg.GenerateConnected(
		geom.CloudConfig{Kind: cloud, N: n, Dim: 2, Seed: seed, Side: ubg.DensitySide(n, 2, sideRadius, 8)},
		ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// hDecidesShapes are the n = 2,048 shapes on which the cluster graph H
// decides queries the partial spanner alone would answer otherwise: the
// builder benchmarks' uniform instance (one such query at ε = 0.5) and a
// clustered cloud, whose hotspots put a large share of the queries of a
// phase next to a cluster with a second member.
var hDecidesShapes = []struct {
	name       string
	cloud      geom.Cloud
	sideRadius float64
}{
	{"bench-uniform", geom.CloudUniform, 1},
	{"clustered", geom.CloudClustered, 0.75},
}

// TestBuildPinned freezes the sequential builder's output, edge for edge,
// on expected-degree-8 instances at ε = 0.5. A change to how a phase
// computes its cover, cluster graph or redundant pairs must reproduce these
// digests; a deliberate change to the algorithm must update them here.
func TestBuildPinned(t *testing.T) {
	for _, tc := range []struct {
		n      int
		seed   int64
		edges  int
		digest string
	}{
		{256, 1, 422, "ab5945bd2b528bf50daa44651ae6239103af0c3a20229d62c6cded0daee7d308"},
		{256, 2, 424, "74fa8b00f0d17924f44fc5d4263eb1fcd384720f1443cd69494119a4a3f19b89"},
		{1024, 1, 1845, "082a78fc67fce57b1b2e419f20563ed44f538d9ba22abacc36eede920809aaa8"},
		{1024, 2, 1768, "ca448f9a0b7c34bddd37c9e272045dba8f511215efe715f3019977392456755c"},
	} {
		t.Run(fmt.Sprintf("n=%d/seed=%d", tc.n, tc.seed), func(t *testing.T) {
			checkPinned(t, pinnedInstance(t, tc.n, tc.seed), tc.edges, tc.digest)
		})
	}
	// The hDecidesShapes at n = 2,048, seed 1, pinned before phases
	// answered their queries on the partial spanner first. The clustered
	// cloud has coincident points; its row was re-pinned when a
	// coincident witness stopped covering edges (it had frozen a spanner
	// of stretch ≈ 260).
	for i, tc := range []struct {
		edges  int
		digest string
	}{
		{3520, "f12a2773891ea546b3db9dcc2b4b72152d4572ba06c5469432214b4501d78d4e"},
		{3514, "b68cac3478cb6fef2d2e8faa8ae77e02a72bd38907f1f2b0e3f1d3c277aa5a6d"},
	} {
		sh := hDecidesShapes[i]
		t.Run(sh.name+"/n=2048/seed=1", func(t *testing.T) {
			checkPinned(t, shapeInstance(t, sh.cloud, 2048, 1, sh.sideRadius), tc.edges, tc.digest)
		})
	}
}

// checkPinned builds inst's spanner at ε = 0.5, checks that it is a
// t-spanner, and compares it with the pinned edge count and digest.
func checkPinned(t *testing.T, inst *ubg.Instance, edges int, digest string) {
	t.Helper()
	p := mustParams(t, 0.5, 0.75, 2)
	res, err := Build(inst.Points, inst.G, Options{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stretch(inst.G, res.Spanner); s > p.T {
		t.Errorf("stretch %v exceeds t = %v", s, p.T)
	}
	if got := res.Spanner.M(); got != edges {
		t.Errorf("spanner has %d edges, pinned %d", got, edges)
	}
	if got := spannerDigest(res.Spanner); got != digest {
		t.Errorf("spanner digest %s, pinned %s", got, digest)
	}
}
