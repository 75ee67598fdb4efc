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
// the algorithm must update them here.
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
		{256, 2, false, 424, "bf6edbdc26a5f4cca6213f16c1b957bf3e5fca568724b15e7d7c7cbb25a4a2a9"},
		{1024, 1, false, 1844, "3d1e717ce732b45ea8d7778bd267dc50c06f9247cb839b71a207f2be4ebdfc38"},
		{1024, 2, false, 1767, "23cb94608b23d279f369c9045409ba86f7aab5755a9f9817eff5805403fb0e14"},
		{256, 1, true, 422, "ab5945bd2b528bf50daa44651ae6239103af0c3a20229d62c6cded0daee7d308"},
		{256, 2, true, 424, "74fa8b00f0d17924f44fc5d4263eb1fcd384720f1443cd69494119a4a3f19b89"},
		{1024, 1, true, 1845, "082a78fc67fce57b1b2e419f20563ed44f538d9ba22abacc36eede920809aaa8"},
		{1024, 2, true, 1768, "ca448f9a0b7c34bddd37c9e272045dba8f511215efe715f3019977392456755c"},
	} {
		t.Run(fmt.Sprintf("n=%d/seed=%d/greedyMIS=%v", tc.n, tc.seed, tc.greedyMIS), func(t *testing.T) {
			inst, err := ubg.GenerateConnected(
				geom.CloudConfig{Kind: geom.CloudUniform, N: tc.n, Dim: 2, Seed: tc.seed, Side: ubg.DensitySide(tc.n, 2, 0.75, 8)},
				ubg.Config{Alpha: 0.75, Model: ubg.ModelAll, Seed: tc.seed},
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Build(inst.Points, inst.G, Options{Params: p, Seed: 1, UseGreedyMIS: tc.greedyMIS})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Spanner.M(); got != tc.edges {
				t.Errorf("spanner has %d edges, pinned %d", got, tc.edges)
			}
			if got := spannerDigest(res.Spanner); got != tc.digest {
				t.Errorf("spanner digest %s, pinned %s", got, tc.digest)
			}
		})
	}
}
