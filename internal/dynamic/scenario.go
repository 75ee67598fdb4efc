package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"topoctl/internal/geom"
	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// ScenarioConfig parameterizes a reproducible churn workload: a node
// population on the plane's unit ball graph under a stream of joins,
// departures, and movements with configurable relative rates. Identical
// configs produce identical operation streams, results, and maintained
// topologies.
//
// The deployment box is sized for an expected degree of ~8 (the density
// ubg.GenerateConnected targets), a move is a Gaussian step of scale 0.25
// per coordinate, and a departure drawn while the population is at
// max(4, N/4) executes as a move instead.
type ScenarioConfig struct {
	// N is the initial node count.
	N int
	// T is the target stretch (default 1.5).
	T float64
	// Ops is the number of churn operations to run.
	Ops int
	// ArrivalRate, DepartureRate and MobilityRate are the relative weights
	// of join, leave, and move operations (they need not sum to 1; all
	// zero defaults to pure mobility).
	ArrivalRate, DepartureRate, MobilityRate float64
	// Batch coalesces every Batch consecutive operations into one repair
	// pass (<= 1 repairs after every operation).
	Batch int
	// Seed makes the scenario reproducible.
	Seed int64
	// CheckEvery verifies the stretch invariant every CheckEvery committed
	// operations (0: verify only at the end). Checks are outside the
	// repair timing.
	CheckEvery int
}

const (
	// scenarioDim is the scenario's embedding dimension.
	scenarioDim = 2
	// moveSigma is the per-move Gaussian step scale, in units of the unit
	// connectivity radius.
	moveSigma = 0.25
)

func (c *ScenarioConfig) normalize() error {
	if c.N < 2 {
		return fmt.Errorf("dynamic: scenario needs N >= 2, got %d", c.N)
	}
	if c.T == 0 {
		c.T = 1.5
	}
	if c.ArrivalRate == 0 && c.DepartureRate == 0 && c.MobilityRate == 0 {
		c.MobilityRate = 1
	}
	if c.ArrivalRate < 0 || c.DepartureRate < 0 || c.MobilityRate < 0 {
		return fmt.Errorf("dynamic: negative churn rate")
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	return nil
}

// ScenarioResult reports what a churn run did and what it cost.
type ScenarioResult struct {
	Config ScenarioConfig
	// Joins, Leaves and Moves count executed operations.
	Joins, Leaves, Moves int
	// FinalNodes, BaseEdges and SpannerEdges describe the final topology.
	FinalNodes, BaseEdges, SpannerEdges int
	// Checks counts stretch verifications, Violations how many failed,
	// WorstStretch the maximum observed (over base edges, so 1.0 means
	// every base edge is t-spanned with no slack consumed).
	Checks, Violations int
	WorstStretch       float64
	// RepairTime is the total wall time spent inside engine operations
	// (base updates + dirty sweeps + repair), excluding verification.
	RepairTime time.Duration
	// Stats are the engine's work counters.
	Stats Stats
}

// String renders the result as a small table.
func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "churn scenario: n0=%d ops=%d (join/leave/move = %.2g/%.2g/%.2g) batch=%d seed=%d\n",
		r.Config.N, r.Config.Ops, r.Config.ArrivalRate, r.Config.DepartureRate, r.Config.MobilityRate,
		r.Config.Batch, r.Config.Seed)
	fmt.Fprintf(&b, "  executed      %d joins, %d leaves, %d moves\n", r.Joins, r.Leaves, r.Moves)
	fmt.Fprintf(&b, "  final         %d nodes, %d base links, %d spanner links\n", r.FinalNodes, r.BaseEdges, r.SpannerEdges)
	fmt.Fprintf(&b, "  invariant     %d checks, %d violations, worst stretch %.4f (bound %.2f)\n",
		r.Checks, r.Violations, r.WorstStretch, r.Config.T)
	fmt.Fprintf(&b, "  repair        %d passes, %d candidates, +%d/-%d spanner edges, %v total (%v/op)\n",
		r.Stats.Repairs, r.Stats.Candidates, r.Stats.EdgesAdded, r.Stats.EdgesRemoved,
		r.RepairTime.Round(time.Microsecond), (r.RepairTime / time.Duration(max(1, r.Joins+r.Leaves+r.Moves))).Round(time.Nanosecond))
	return b.String()
}

// RunScenario executes a churn workload against a fresh engine and verifies
// the stretch invariant at the configured cadence.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	side := ubg.DensitySide(cfg.N, scenarioDim, 1, 8)
	minNodes := max(4, cfg.N/4)
	pts := geom.GeneratePoints(geom.CloudConfig{
		Kind: geom.CloudUniform, N: cfg.N, Dim: scenarioDim, Side: side, Seed: cfg.Seed,
	})
	eng, err := New(pts, Options{T: cfg.T})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	res := &ScenarioResult{Config: cfg, WorstStretch: 1}

	var ids []int // live-id scratch
	total := cfg.ArrivalRate + cfg.DepartureRate + cfg.MobilityRate
	randomPoint := func() geom.Point {
		p := make(geom.Point, scenarioDim)
		for i := range p {
			p[i] = rng.Float64() * side
		}
		return p
	}
	pickLive := func() int {
		ids = eng.IDs(ids[:0])
		return ids[rng.Intn(len(ids))]
	}

	committed := 0
	lastChecked := 0
	check := func(force bool) {
		// Batched commits advance `committed` in Batch-sized jumps, so the
		// cadence triggers on crossing a multiple of CheckEvery, not on
		// landing exactly on one.
		if !force && (cfg.CheckEvery == 0 || committed/cfg.CheckEvery == lastChecked/cfg.CheckEvery) {
			return
		}
		lastChecked = committed
		res.Checks++
		s := stretchOf(eng)
		if s > res.WorstStretch {
			res.WorstStretch = s
		}
		if s > cfg.T+1e-9 {
			res.Violations++
		}
	}

	inBatch := 0
	for op := 0; op < cfg.Ops; op++ {
		if cfg.Batch > 1 && inBatch == 0 {
			eng.Begin()
		}
		// Draw the operation and its arguments first, then start the
		// clock: RepairTime charges only the engine (base updates, dirty
		// sweeps, repair), not the scenario driver's RNG and id scans.
		x := rng.Float64() * total
		var opStart time.Time
		switch {
		case x < cfg.ArrivalRate:
			p := randomPoint()
			opStart = time.Now()
			if _, err := eng.Join(p); err != nil {
				return nil, err
			}
			res.Joins++
		case x < cfg.ArrivalRate+cfg.DepartureRate && eng.N() > minNodes:
			id := pickLive()
			opStart = time.Now()
			if err := eng.Leave(id); err != nil {
				return nil, err
			}
			res.Leaves++
		default:
			id := pickLive()
			p := eng.Point(id).Clone()
			for i := range p {
				p[i] += rng.NormFloat64() * moveSigma
				p[i] = math.Max(0, math.Min(side, p[i]))
			}
			opStart = time.Now()
			if err := eng.Move(id, p); err != nil {
				return nil, err
			}
			res.Moves++
		}
		res.RepairTime += time.Since(opStart)
		inBatch++
		if cfg.Batch > 1 && (inBatch == cfg.Batch || op == cfg.Ops-1) {
			commitStart := time.Now()
			eng.Commit()
			res.RepairTime += time.Since(commitStart)
			committed += inBatch
			inBatch = 0
			check(false)
			continue
		}
		if cfg.Batch <= 1 {
			committed++
			check(false)
		}
	}
	check(true)

	res.FinalNodes = eng.N()
	res.BaseEdges = eng.Base().M()
	res.SpannerEdges = eng.Spanner().M()
	res.Stats = eng.Stats()
	return res, nil
}

// stretchOf measures the exact stretch of the maintained spanner over the
// current base graph.
func stretchOf(e *Engine) float64 { return metrics.Stretch(e.Base(), e.Spanner()) }
