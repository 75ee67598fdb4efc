package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
)

// frozenEdgeSet renders any topology's edge set canonically.
func frozenEdgeSet(t graph.Topology) string {
	es := t.EdgesUnordered()
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = fmt.Sprintf("%d-%d:%.12f", e.U, e.V, e.W)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// requireFrozenMatches checks that the delta-exported frozen graph is
// edge-for-edge and search-for-search identical to the engine's mutable
// graph it was exported from.
func requireFrozenMatches(t *testing.T, label string, f *graph.Frozen, g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	if f.N() != g.N() || f.M() != g.M() {
		t.Fatalf("%s: size %d/%d vs %d/%d", label, f.N(), f.M(), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if f.Degree(u) != g.Degree(u) {
			t.Fatalf("%s: degree(%d) %d != %d", label, u, f.Degree(u), g.Degree(u))
		}
	}
	if frozenEdgeSet(f) != frozenEdgeSet(g) {
		t.Fatalf("%s: edge sets differ\n frozen %s\n graph  %s", label, frozenEdgeSet(f), frozenEdgeSet(g))
	}
	if f.MaxDegree() != g.MaxDegree() {
		t.Fatalf("%s: maxdeg %d != %d", label, f.MaxDegree(), g.MaxDegree())
	}
	// Both sum the same rows in the same order: bit-identical.
	if w1, w2 := f.TotalWeight(), g.TotalWeight(); w1 != w2 {
		t.Fatalf("%s: weight %v != %v", label, w1, w2)
	}
	// Searches agree: distances exactly, paths by cross-certification.
	s1, s2 := graph.NewSearcher(g.N()), graph.NewSearcher(g.N())
	for q := 0; q < 20; q++ {
		src, dst := rng.Intn(g.N()), rng.Intn(g.N())
		d1, ok1 := s1.DijkstraTarget(g, src, dst, graph.Inf)
		d2, ok2 := s2.DijkstraTarget(f, src, dst, graph.Inf)
		if ok1 != ok2 || (ok1 && math.Abs(d1-d2) > 1e-12) {
			t.Fatalf("%s: dist(%d,%d) %v/%v vs %v/%v", label, src, dst, d1, ok1, d2, ok2)
		}
		p1, c1, okp1 := s1.PathTo(g, src, dst, graph.Inf)
		p2, c2, okp2 := s2.PathTo(f, src, dst, graph.Inf)
		if okp1 != okp2 || (okp1 && math.Abs(c1-c2) > 1e-12) {
			t.Fatalf("%s: path(%d,%d) cost %v/%v vs %v/%v", label, src, dst, c1, okp1, c2, okp2)
		}
		if okp1 {
			if w, ok := graph.PathWeight(f, p1); !ok || math.Abs(w-c1) > 1e-12 {
				t.Fatalf("%s: graph path rejected on frozen (%v %v)", label, w, ok)
			}
			if w, ok := graph.PathWeight(g, p2); !ok || math.Abs(w-c2) > 1e-12 {
				t.Fatalf("%s: frozen path rejected on graph (%v %v)", label, w, ok)
			}
		}
	}
}

// TestDifferentialFrozenExport reruns the PR-2 style fuzzed churn sequences
// and pins, after every commit, that ExportFrozen's delta-rebuilt snapshots
// are indistinguishable from the engine's mutable graphs: same N/M/degrees/
// edge set, and identical Searcher results (distance and path) on both
// representations. This is the differential harness that licenses serving
// reads from Frozen.
func TestDifferentialFrozenExport(t *testing.T) {
	sequences := 120
	if testing.Short() {
		sequences = 30
	}
	for seq := 0; seq < sequences; seq++ {
		seed := int64(5000 + seq)
		rng := rand.New(rand.NewSource(seed))
		n0 := 10 + rng.Intn(24)
		tStretch := []float64{1.3, 1.5, 2.0}[rng.Intn(3)]
		side := 1.5 + rng.Float64()*2.5
		ops := 6 + rng.Intn(10)
		batch := 1
		if rng.Intn(3) == 0 {
			batch = 2 + rng.Intn(4)
		}

		pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: n0, Dim: 2, Side: side, Seed: seed})
		e, err := New(pts, Options{T: tStretch})
		if err != nil {
			t.Fatalf("seq %d (seed %d): %v", seq, seed, err)
		}

		check := func(op int) {
			points, alive, base, sp := e.ExportFrozen()
			requireFrozenMatches(t, fmt.Sprintf("seq %d op %d base", seq, op), base, e.Base(), rng)
			requireFrozenMatches(t, fmt.Sprintf("seq %d op %d spanner", seq, op), sp, e.Spanner(), rng)
			if len(points) != len(alive) || len(points) != base.N() {
				t.Fatalf("seq %d op %d: slot metadata %d/%d vs n %d", seq, op, len(points), len(alive), base.N())
			}
			for id := range alive {
				if alive[id] != e.Alive(id) {
					t.Fatalf("seq %d op %d: alive[%d] mismatch", seq, op, id)
				}
				if alive[id] && geom.Dist(points[id], e.Point(id)) != 0 {
					t.Fatalf("seq %d op %d: point[%d] mismatch", seq, op, id)
				}
			}
		}
		check(-1)

		inBatch := 0
		for op := 0; op < ops; op++ {
			if batch > 1 && inBatch == 0 {
				e.Begin()
			}
			switch r := rng.Float64(); {
			case r < 0.3:
				if _, err := e.Join(geom.Point{rng.Float64() * side, rng.Float64() * side}); err != nil {
					t.Fatalf("seq %d op %d join: %v", seq, op, err)
				}
			case r < 0.55 && e.N() > 4:
				ids := e.IDs(nil)
				if err := e.Leave(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatalf("seq %d op %d leave: %v", seq, op, err)
				}
			default:
				ids := e.IDs(nil)
				id := ids[rng.Intn(len(ids))]
				p := e.Point(id).Clone()
				for i := range p {
					p[i] += rng.NormFloat64() * 0.3
				}
				if err := e.Move(id, p); err != nil {
					t.Fatalf("seq %d op %d move: %v", seq, op, err)
				}
			}
			inBatch++
			if batch > 1 && (inBatch == batch || op == ops-1) {
				e.Commit()
				inBatch = 0
			}
			if batch == 1 || inBatch == 0 {
				check(op)
			}
		}
	}
}

// TestExportFrozenNoChangeIsIdentical pins the zero-net-change contract: a
// commit that changes nothing republishes the prior snapshot — the exact
// same graph pointers and metadata slices.
func TestExportFrozenNoChangeIsIdentical(t *testing.T) {
	pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: 32, Dim: 2, Side: 2.5, Seed: 9})
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	p1, a1, b1, s1 := e.ExportFrozen()

	// Repeated export with no operations at all.
	p2, a2, b2, s2 := e.ExportFrozen()
	if b1 != b2 || s1 != s2 || &p1[0] != &p2[0] || &a1[0] != &a2[0] {
		t.Fatal("idle export did not republish the prior snapshot")
	}

	// An empty batch commit is a zero-net-change publish.
	e.Begin()
	e.Commit()
	_, _, b3, s3 := e.ExportFrozen()
	if b1 != b3 || s1 != s3 {
		t.Fatal("empty batch changed the published snapshot")
	}

	// A real op produces new snapshots, but the old ones stay valid and
	// untouched rows are shared.
	id, err := e.Join(geom.Point{1.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	_, _, b4, s4 := e.ExportFrozen()
	if b4 == b3 || s4 == s3 {
		t.Fatal("join did not produce fresh snapshots")
	}
	if b4.N() <= id && b3.N() > id {
		t.Fatal("frozen base lost the grown range")
	}
}

// TestExportFrozenMidBatchThenCommit pins that an export taken mid-batch
// (before Commit runs repair) is not republished stale afterwards: the
// repair pass mutates the spanner after the ops return, and the
// post-commit export must reflect it.
func TestExportFrozenMidBatchThenCommit(t *testing.T) {
	pts := geom.GeneratePoints(geom.CloudConfig{Kind: geom.CloudUniform, N: 48, Dim: 2, Side: 2.0, Seed: 17})
	e, err := New(pts, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	e.Begin()
	ids := e.IDs(nil)
	for i := 0; i < 4; i++ {
		id := ids[rng.Intn(len(ids))]
		p := e.Point(id).Clone()
		p[0] += rng.NormFloat64() * 0.4
		p[1] += rng.NormFloat64() * 0.4
		if err := e.Move(id, p); err != nil {
			t.Fatal(err)
		}
	}
	e.ExportFrozen() // mid-batch export: spanner not yet repaired
	e.Commit()
	_, _, base, sp := e.ExportFrozen()
	requireFrozenMatches(t, "post-commit base", base, e.Base(), rng)
	requireFrozenMatches(t, "post-commit spanner", sp, e.Spanner(), rng)
}

// TestExportFrozenIsolatedMoveSharesGraphs pins row-level sharing: moving a
// node with no edges changes the point set but no adjacency row, so the
// frozen graphs are republished by pointer while the points are fresh.
func TestExportFrozenIsolatedMoveSharesGraphs(t *testing.T) {
	// Two nodes far apart: no base edges at radius 1.
	e, err := New([]geom.Point{{0, 0}, {10, 10}}, Options{T: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	_, _, b1, s1 := e.ExportFrozen()
	if b1.M() != 0 {
		t.Fatalf("expected an edgeless base graph, m=%d", b1.M())
	}
	// Move the isolated node somewhere still isolated.
	if err := e.Move(1, geom.Point{20, 20}); err != nil {
		t.Fatal(err)
	}
	pts, _, b2, s2 := e.ExportFrozen()
	if b2 != b1 || s2 != s1 {
		t.Fatal("edgeless move rebuilt the frozen graphs")
	}
	if geom.Dist(pts[1], geom.Point{20, 20}) != 0 {
		t.Fatal("exported points missed the move")
	}
}
