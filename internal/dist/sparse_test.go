package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"topoctl/internal/cluster"
	"topoctl/internal/core"
	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/mis"
)

// coverChecker is the builder with every phase's election checked against
// the forms that run over all n vertices.
type coverChecker struct {
	*builder
	t                 *testing.T
	phases, clustered int
}

func (c *coverChecker) Cover(sp *graph.Graph, radius float64, short []int, cov *cluster.Cover) {
	c.builder.Cover(sp, radius, short, cov)
	t, n := c.t, sp.N()
	c.phases++
	c.clustered += len(cov.Clustered)

	// The vertices outside short are isolated in the derived graph, so
	// the election over every vertex also elects each of them.
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	centers := slices.Clone(c.centers)
	for v := range n {
		if _, in := slices.BinarySearch(short, v); !in {
			centers = append(centers, v)
		}
	}
	slices.Sort(centers)
	full, err := cluster.CoverFromCenters(sp, radius, all, centers, nil)
	if err != nil {
		t.Fatalf("phase %d: %v", c.phases, err)
	}
	if !slices.Equal(cov.Center, full.Center) ||
		!slices.EqualFunc(cov.Dist, full.Dist, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("phase %d: the attachment over short differs from the one over every vertex", c.phases)
	}
	if !slices.Equal(cov.Clustered, full.Clustered) {
		t.Fatalf("phase %d: Clustered %v, over every vertex %v", c.phases, cov.Clustered, full.Clustered)
	}
	for _, ctr := range full.Clustered {
		if !slices.Equal(cov.Members(ctr), full.Members(ctr)) {
			t.Fatalf("phase %d: members of %d are %v, over every vertex %v", c.phases, ctr, cov.Members(ctr), full.Members(ctr))
		}
	}
	if !c.opts.UseGreedyMIS {
		return
	}
	// The greedy election over every vertex elects the same centers.
	adj := make([][]int, n)
	for u := range n {
		for _, vd := range c.search.Ball(sp, u, radius) {
			if vd.V != u {
				adj[u] = append(adj[u], vd.V)
			}
		}
	}
	var elected []int
	for v, in := range mis.Greedy(adj) {
		if in {
			elected = append(elected, v)
		}
	}
	if !slices.Equal(elected, centers) {
		t.Fatalf("phase %d: elected %d centers over short, %d over every vertex", c.phases, len(centers), len(elected))
	}
}

// TestShortCoverMatchesFullAttachment drives real n = 2,048 builds of
// both MIS arms, on the builders' benchmark instance and a clustered
// cloud, and checks every phase: CoverFromCenters over the short-edge
// vertices must equal, bit for bit, the attachment over every vertex from
// the centers the full election would add (every vertex outside short),
// and with the greedy MIS the election over short must elect what the
// election over every vertex does.
func TestShortCoverMatchesFullAttachment(t *testing.T) {
	p, err := core.NewParams(0.5, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		cloud      geom.Cloud
		sideRadius float64
	}{
		{"bench-uniform", geom.CloudUniform, 1},
		{"clustered", geom.CloudClustered, 0.75},
	} {
		inst := pinnedInstance(t, tc.cloud, 2048, 1, tc.sideRadius)
		for _, greedyMIS := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/greedyMIS=%v", tc.name, greedyMIS), func(t *testing.T) {
				c := &coverChecker{builder: newBuilder(inst.G, Options{Params: p, Seed: 1, UseGreedyMIS: greedyMIS}), t: t}
				res, err := core.Run(inst.Points, inst.G, core.Options{Params: p}, c)
				if err != nil {
					t.Fatal(err)
				}
				if c.phases != res.Stats.NonEmptyPhases || c.clustered == 0 {
					t.Fatalf("checked %d of %d phases, %d clustered centers: the harness saw no cluster",
						c.phases, res.Stats.NonEmptyPhases, c.clustered)
				}
			})
		}
	}
}
