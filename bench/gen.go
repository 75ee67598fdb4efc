package main

import (
	"fmt"
	"math/rand"
	"time"

	"topoctl/internal/geom"
	"topoctl/internal/graph"
	"topoctl/internal/netio"
	"topoctl/internal/service"
	"topoctl/internal/ubg"
)

// Deployment shape shared by every daemon workload: d=2, unit radius,
// expected base degree 8, stretch bound 1.5 (the daemon's defaults).
const (
	dim      = 2
	radius   = 1.0
	baseDeg  = 8.0
	stretchT = 1.5
	zipfSkew = 1.2
	batchOps = 4    // ops per /mutate batch: 2 moves, 1 join, 1 leave
	mutateHz = 10   // open-loop batches per second
	hotPairs = 2048 // fits the daemon's default 8192-entry route cache
)

// genPoints draws the uniform cloud the daemon is booted on.
func genPoints(n int, seed int64) []geom.Point {
	return geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: n, Dim: dim,
		Side: ubg.DensitySide(n, dim, radius, baseDeg), Seed: seed,
	})
}

// writePoints hands the deployment to the daemon as a netio file. Only
// positions are written: the daemon builds its own radius-model base graph
// and ignores the file's edge list.
func writePoints(path string, pts []geom.Point) error {
	return netio.WriteTo(path, &netio.Instance{Points: pts, G: graph.New(len(pts)), Alpha: radius})
}

// query is one read request; dist selects /distance over /route.
type query struct {
	src, dst int
	dist     bool
}

func (q query) path() string {
	if q.dist {
		return "/distance"
	}
	return "/route"
}

func (q query) body() []byte {
	return fmt.Appendf(nil, `{"src":%d,"dst":%d}`, q.src, q.dst)
}

// querySource is one endless, seed-determined stream of requests.
type querySource func() query

// steady is a client that sends one stream whatever the clock says.
func steady(src querySource) clientStream { return func(time.Duration) query { return src() } }

// alternating is a client that switches between two streams every slice,
// starting with a for the warm-up and the first slice after it.
func alternating(a, b querySource, warm, slice time.Duration) clientStream {
	return func(elapsed time.Duration) query {
		if elapsed >= warm && int((elapsed-warm)/slice)%2 == 1 {
			return b()
		}
		return a()
	}
}

// clientRng derives an independent stream per (seed, phase, client).
func clientRng(seed int64, phase, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*1009 + int64(client)))
}

// pairOf draws a uniform pair of distinct ids from ids.
func pairOf(rng *rand.Rand, ids []int) (int, int) {
	a := rng.Intn(len(ids))
	b := rng.Intn(len(ids) - 1)
	if b >= a {
		b++
	}
	return ids[a], ids[b]
}

func idRange(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// hotSet is the fixed pair set of route-hot: uniform distinct pairs, few
// enough to stay resident in the route cache.
func hotSet(n, pairs int, seed int64) []query {
	rng, ids := clientRng(seed, 0, 99), idRange(n)
	set := make([]query, pairs)
	for i := range set {
		set[i].src, set[i].dst = pairOf(rng, ids)
	}
	return set
}

// zipfOver streams zipf-ranked draws from a fixed query set.
func zipfOver(set []query, rng *rand.Rand) querySource {
	z := rand.NewZipf(rng, zipfSkew, 1, uint64(len(set)-1))
	return func() query { return set[z.Uint64()] }
}

// uniformPairs streams uniform random pairs over ids.
func uniformPairs(ids []int, rng *rand.Rand, dist bool) querySource {
	return func() query {
		s, t := pairOf(rng, ids)
		return query{src: s, dst: t, dist: dist}
	}
}

// zipfAlternating is the churn reader: zipf-ranked endpoints over ids,
// strictly alternating /route and /distance.
func zipfAlternating(ids []int, rng *rand.Rand) querySource {
	z := rand.NewZipf(rng, zipfSkew, 1, uint64(len(ids)-1))
	dist := true
	return func() query {
		s, t := int(z.Uint64()), int(z.Uint64())
		if s == t {
			t = (t + 1) % len(ids)
		}
		dist = !dist
		return query{src: ids[s], dst: ids[t], dist: dist}
	}
}

// take materializes the first k draws of a stream.
func take(src querySource, k int) []query {
	out := make([]query, k)
	for i := range out {
		out[i] = src()
	}
	return out
}

// churnPlan is the pre-generated write schedule of churn-durable plus the
// ids its reader may address. Moves and leaves only ever target initial
// nodes the plan has not removed, so every op succeeds whatever slot the
// engine assigns to a join; the reader draws from the ids the plan never
// removes, so no read meets a departed node. Each batch joins one node and
// removes one, so the node count ends where it began.
type churnPlan struct {
	batches  [][]service.Op
	readable []int
}

func genChurn(pts []geom.Point, batches int, seed int64) churnPlan {
	rng := clientRng(seed, 7, 0)
	lo, hi := bounds(pts)
	target := func() geom.Point {
		p := make(geom.Point, dim)
		for i := range p {
			p[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
		}
		return p
	}
	alive := idRange(len(pts)) // initial ids still present, in draw order
	pick := func(remove bool) int {
		i := rng.Intn(len(alive))
		id := alive[i]
		if remove {
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		}
		return id
	}
	plan := churnPlan{batches: make([][]service.Op, batches)}
	for b := range plan.batches {
		// A leave and a move of the same node in one batch would make the
		// second op fail, so the leave is drawn (and removed) first.
		leave := pick(true)
		plan.batches[b] = []service.Op{
			{Kind: service.OpMove, ID: pick(false), Point: target()},
			{Kind: service.OpJoin, Point: target()},
			{Kind: service.OpMove, ID: pick(false), Point: target()},
			{Kind: service.OpLeave, ID: leave},
		}
	}
	plan.readable = alive
	return plan
}

// bounds is the bounding box of the deployment, which /stats reports as
// bbox_lo/bbox_hi; the plan is generated before the daemon exists, so the
// harness computes it itself.
func bounds(pts []geom.Point) (lo, hi geom.Point) {
	lo, hi = pts[0].Clone(), pts[0].Clone()
	for _, p := range pts[1:] {
		for i := range p {
			lo[i], hi[i] = min(lo[i], p[i]), max(hi[i], p[i])
		}
	}
	return lo, hi
}
