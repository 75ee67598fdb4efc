package dist

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"topoctl/internal/core"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// spannerDigest is the SHA-256 of g's edge list in sorted (U, V) order,
// each endpoint as a little-endian uint32 (weights left out, as in
// core's TestBuildPinned).
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

// TestBuildPinned freezes the distributed builder's output, edge for edge,
// for both MIS arms on expected-degree-8 instances (α = 0.75, ε = 0.5,
// MIS seed 1). A change to how a phase computes its cover, cluster graph
// or redundant pairs must reproduce these digests; a deliberate change to
// the algorithm must update them here. The greedyMIS=false rows were
// re-pinned when Luby's draws became counter-based.
func TestBuildPinned(t *testing.T) {
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n         int
		seed      int64
		greedyMIS bool
		edges     int
		digest    string
	}{
		{256, 1, false, 422, "80add8a056ceff2e8712832d99d9f4ba0c8fc090c4008a71835c2791aa71a958"},
		{256, 2, false, 424, "2642e1a48ada52e21569cf97b4f5b578022855b96fdf487218205e55754d762a"},
		{1024, 1, false, 1845, "dd8746c348206f89afd15c3f0ee590526bc3f195e7e75c86c52ef8cf8f1f64dc"},
		{1024, 2, false, 1769, "7a400ff06a2c95d10785f147f76d99cbcd1a2b06b4b04f0a377b425de993ba9f"},
		{256, 1, true, 422, "ab5945bd2b528bf50daa44651ae6239103af0c3a20229d62c6cded0daee7d308"},
		{256, 2, true, 424, "74fa8b00f0d17924f44fc5d4263eb1fcd384720f1443cd69494119a4a3f19b89"},
		{1024, 1, true, 1845, "082a78fc67fce57b1b2e419f20563ed44f538d9ba22abacc36eede920809aaa8"},
		{1024, 2, true, 1768, "ca448f9a0b7c34bddd37c9e272045dba8f511215efe715f3019977392456755c"},
	} {
		t.Run(fmt.Sprintf("n=%d/seed=%d/greedyMIS=%v", tc.n, tc.seed, tc.greedyMIS), func(t *testing.T) {
			inst := pinnedInstance(t, geom.CloudUniform, tc.n, tc.seed, 0.75)
			checkPinned(t, inst, Options{Params: p, Seed: 1, UseGreedyMIS: tc.greedyMIS}, tc.edges, tc.digest)
		})
	}
	// Two n = 2,048 shapes on which the cluster graph decides queries the
	// partial spanner alone would answer otherwise (core's hDecidesShapes:
	// the builder benchmarks' uniform instance and a clustered cloud),
	// pinned before phases answered their queries on the partial spanner
	// first. The clustered cloud has coincident points; its rows were
	// re-pinned when a coincident witness stopped covering edges (they
	// had frozen a spanner of stretch ≈ 260).
	for _, tc := range []struct {
		name       string
		cloud      geom.Cloud
		sideRadius float64
		greedyMIS  bool
		edges      int
		digest     string
	}{
		{"bench-uniform", geom.CloudUniform, 1, false, 3521, "a32866861596597b86edd19b2dd6553784b1e33459232f4159c035d9a00e728f"},
		{"bench-uniform", geom.CloudUniform, 1, true, 3520, "f12a2773891ea546b3db9dcc2b4b72152d4572ba06c5469432214b4501d78d4e"},
		{"clustered", geom.CloudClustered, 0.75, false, 3519, "51763c9936ff55c03ef78ca0bfbfe2107d53a9e78e51897eb18c9190d618366e"},
		{"clustered", geom.CloudClustered, 0.75, true, 3514, "a216265a4df4e5c766d82bcf9ea53c688f717f6f00b5757eec056a53dbe1db51"},
	} {
		t.Run(fmt.Sprintf("%s/n=2048/seed=1/greedyMIS=%v", tc.name, tc.greedyMIS), func(t *testing.T) {
			inst := pinnedInstance(t, tc.cloud, 2048, 1, tc.sideRadius)
			checkPinned(t, inst, Options{Params: p, Seed: 1, UseGreedyMIS: tc.greedyMIS}, tc.edges, tc.digest)
		})
	}
}

// pinnedInstance draws an α = 0.75 UBG, every grey-zone pair connected,
// over the given cloud in a box sized for expected degree 8 at radius
// sideRadius.
func pinnedInstance(t *testing.T, cloud geom.Cloud, n int, seed int64, sideRadius float64) *ubg.Instance {
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

// checkPinned builds inst's spanner with opts, checks that it is a
// t-spanner, and compares it with the pinned edge count and digest.
func checkPinned(t *testing.T, inst *ubg.Instance, opts Options, edges int, digest string) {
	t.Helper()
	res, err := Build(inst.Points, inst.G, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := metrics.Stretch(inst.G, res.Spanner); s > opts.Params.T {
		t.Errorf("stretch %v exceeds t = %v", s, opts.Params.T)
	}
	if got := res.Spanner.M(); got != edges {
		t.Errorf("spanner has %d edges, pinned %d", got, edges)
	}
	if got := spannerDigest(res.Spanner); got != digest {
		t.Errorf("spanner digest %s, pinned %s", got, digest)
	}
}
