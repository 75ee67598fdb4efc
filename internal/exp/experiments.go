package exp

import (
	"fmt"
	"math"

	"strings"
	"topoctl/internal/baseline"
	"topoctl/internal/core"
	"topoctl/internal/dist"
	"topoctl/internal/fault"
	"topoctl/internal/geom"
	"topoctl/internal/graph"

	"topoctl/internal/metrics"
	"topoctl/internal/ubg"
)

// instance generates the standard connected α-UBG workload.
func instance(n, d int, alpha float64, kind geom.Cloud, model ubg.Model, seed int64) (*ubg.Instance, error) {
	if kind == 0 {
		kind = geom.CloudUniform
	}
	return ubg.GenerateConnected(
		geom.CloudConfig{Kind: kind, N: n, Dim: d, Seed: seed},
		ubg.Config{Alpha: alpha, Model: model, P: 0.5, Seed: seed},
	)
}

func buildSeq(inst *ubg.Instance, eps float64, opts core.Options) (*core.Result, error) {
	p, err := core.NewParams(eps, inst.Alpha, inst.Dim)
	if err != nil {
		return nil, err
	}
	opts.Params = p
	return core.Build(inst.Points, inst.G, opts)
}

// T1Stretch — Theorem 10: the output is a (1+ε)-spanner for every ε.
func T1Stretch(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T1-stretch",
		Title:  "Theorem 10: measured stretch vs guarantee t = 1+ε (d=2, α=0.75, uniform)",
		Header: []string{"eps", "n", "t", "worst stretch", "min margin", "reps", "avg spanner edges"},
		Notes:  []string{"stretch is exact (max over all base-graph edges) and aggregated as the worst over independent instances; min margin = t − worst stretch must be ≥ 0"},
	}
	for _, eps := range []float64{0.25, 0.5, 1.0} {
		for _, n := range cfg.sizes() {
			type repOut struct {
				stretch, t float64
				edges      int
			}
			outs, err := parallelReps(cfg.reps(), func(rep int) (repOut, error) {
				inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 100+cfg.Seed+int64(n)+int64(rep)*7919)
				if err != nil {
					return repOut{}, err
				}
				res, err := buildSeq(inst, eps, core.Options{})
				if err != nil {
					return repOut{}, err
				}
				return repOut{stretch: metrics.Stretch(inst.G, res.Spanner), t: res.Params.T, edges: res.Spanner.M()}, nil
			})
			if err != nil {
				return nil, err
			}
			worst := 0.0
			var tParam, edgeSum float64
			for _, o := range outs {
				if o.stretch > worst {
					worst = o.stretch
				}
				tParam = o.t
				edgeSum += float64(o.edges)
			}
			t.AddRow(eps, n, tParam, worst, tParam-worst, cfg.reps(), edgeSum/float64(cfg.reps()))
		}
	}
	return t, nil
}

// T2Degree — Theorem 11: Δ(G') = O(1), independent of n.
func T2Degree(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T2-degree",
		Title:  "Theorem 11: maximum spanner degree stays constant as n grows (ε=0.5)",
		Header: []string{"n", "worst input maxdeg", "worst spanner maxdeg", "avg spanner avgdeg", "reps"},
	}
	for _, n := range cfg.sizes() {
		type repOut struct {
			inDeg int
			deg   metrics.DegreeStats
		}
		outs, err := parallelReps(cfg.reps(), func(rep int) (repOut, error) {
			inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 200+cfg.Seed+int64(n)+int64(rep)*7919)
			if err != nil {
				return repOut{}, err
			}
			res, err := buildSeq(inst, 0.5, core.Options{})
			if err != nil {
				return repOut{}, err
			}
			return repOut{inDeg: inst.G.MaxDegree(), deg: metrics.Degrees(res.Spanner)}, nil
		})
		if err != nil {
			return nil, err
		}
		inDeg, outDeg := 0, 0
		var avgSum float64
		for _, o := range outs {
			if o.inDeg > inDeg {
				inDeg = o.inDeg
			}
			if o.deg.Max > outDeg {
				outDeg = o.deg.Max
			}
			avgSum += o.deg.Avg
		}
		t.AddRow(n, inDeg, outDeg, avgSum/float64(cfg.reps()), cfg.reps())
	}
	return t, nil
}

// T3Weight — Theorem 13: w(G') = O(w(MST)), ratio constant in n.
func T3Weight(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T3-weight",
		Title:  "Theorem 13: spanner weight over MST weight stays constant as n grows (ε=0.5)",
		Header: []string{"n", "avg w(G)", "avg w(MST)", "avg w(G')", "worst w(G')/w(MST)", "reps"},
	}
	for _, n := range cfg.sizes() {
		type repOut struct {
			wg, wmst, wsp float64
		}
		outs, err := parallelReps(cfg.reps(), func(rep int) (repOut, error) {
			inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 300+cfg.Seed+int64(n)+int64(rep)*7919)
			if err != nil {
				return repOut{}, err
			}
			res, err := buildSeq(inst, 0.5, core.Options{})
			if err != nil {
				return repOut{}, err
			}
			return repOut{wg: inst.G.TotalWeight(), wmst: inst.G.MSTWeight(), wsp: res.Spanner.TotalWeight()}, nil
		})
		if err != nil {
			return nil, err
		}
		var wg, wmst, wsp, worst float64
		for _, o := range outs {
			wg += o.wg
			wmst += o.wmst
			wsp += o.wsp
			if r := o.wsp / o.wmst; r > worst {
				worst = r
			}
		}
		r := float64(cfg.reps())
		t.AddRow(n, wg/r, wmst/r, wsp/r, worst, cfg.reps())
	}
	return t, nil
}

// T4Rounds — Theorems 14–21: distributed round complexity.
func T4Rounds(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T4-rounds",
		Title:  "Theorems 14–21: distributed rounds vs n (ε=0.5, Luby MIS substitution)",
		Header: []string{"n", "rounds", "messages", "phases", "rounds/log²n", "rounds/(logn·log*n)"},
		Notes: []string{
			"Luby MIS (O(log n) w.h.p.) substitutes the O(log* n) KMW MIS; the paper's bound predicts rounds/(log n·log* n) constant, ours predicts rounds/log² n approximately constant — both normalizations are shown",
			"empty bins cost no rounds: no node has a query to initiate, so no step of PROCESS-LONG-EDGES (§3.2) runs",
		},
	}
	for _, n := range cfg.distSizes() {
		inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 400+cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		p, err := core.NewParams(0.5, 0.75, 2)
		if err != nil {
			return nil, err
		}
		res, err := dist.Build(inst.Points, inst.G, dist.Options{Params: p, Seed: cfg.Seed + 1})
		if err != nil {
			return nil, err
		}
		l := math.Log2(float64(n))
		t.AddRow(n, res.Rounds, res.Messages, len(res.Phases),
			float64(res.Rounds)/(l*l), float64(res.Rounds)/(l*logStar(float64(n))))
	}
	return t, nil
}

// logStar is the iterated logarithm (base 2).
func logStar(x float64) float64 {
	s := 0.0
	for x > 1 {
		x = math.Log2(x)
		s++
	}
	if s == 0 {
		return 1
	}
	return s
}

// T5Baselines — §1.3: head-to-head against classical topologies.
func T5Baselines(cfg Config) (*Table, error) {
	n := cfg.baseN()
	inst, err := instance(n, 2, 1.0, 0, ubg.ModelAll, 500+cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "T5-baselines",
		Title:  fmt.Sprintf("Baseline comparison on one UDG instance (n=%d, α=1)", n),
		Header: []string{"topology", "edges", "maxdeg", "avgdeg", "stretch", "w/MST", "power/MST"},
		Notes: []string{
			"relaxed-greedy is the paper's algorithm (ε=0.5 → t=1.5); seq-greedy is the exact Das–Narasimhan greedy at the same t",
			"MST/RNG/LMST have unbounded worst-case stretch (visible here); Yao/Gabriel bound stretch only in weaker senses",
		},
	}
	add := func(name string, sp *graph.Graph) {
		r := metrics.Evaluate(name, inst.G, sp)
		stretch := fmt.Sprintf("%.4g", r.Stretch)
		if math.IsInf(r.Stretch, 1) {
			stretch = "inf"
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(r.Edges), fmt.Sprint(r.MaxDegree),
			fmt.Sprintf("%.3g", r.AvgDegree), stretch,
			fmt.Sprintf("%.4g", r.WeightRatio), fmt.Sprintf("%.4g", r.PowerRatio),
		})
	}
	res, err := buildSeq(inst, 0.5, core.Options{})
	if err != nil {
		return nil, err
	}
	add("relaxed-greedy", res.Spanner)
	for _, kind := range baseline.Kinds() {
		sp, err := baseline.Build(kind, inst.Points, inst.G, baseline.Options{T: 1.5})
		if err != nil {
			return nil, err
		}
		add(kind.String(), sp)
	}
	add("input-UDG", inst.G)
	return t, nil
}

// T6Alpha — α-UBG generality across α and grey-zone models.
func T6Alpha(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T6-alpha",
		Title:  "α-UBG generality: guarantees hold across α and every grey-zone model (n=base, ε=0.5)",
		Header: []string{"alpha", "grey-zone", "edges", "stretch", "t", "maxdeg", "w/MST"},
	}
	n := cfg.baseN()
	models := []ubg.Model{ubg.ModelAll, ubg.ModelBernoulli, ubg.ModelFalloff, ubg.ModelNone}
	for _, alpha := range []float64{0.5, 0.65, 0.8, 1.0} {
		for _, model := range models {
			if alpha == 1.0 && model != ubg.ModelAll {
				continue // no grey zone at alpha = 1
			}
			inst, err := instance(n, 2, alpha, 0, model, 600+cfg.Seed)
			if err != nil {
				return nil, err
			}
			res, err := buildSeq(inst, 0.5, core.Options{})
			if err != nil {
				return nil, err
			}
			s := metrics.Stretch(inst.G, res.Spanner)
			t.AddRow(alpha, model.String(), inst.G.M(), s, res.Params.T,
				res.Spanner.MaxDegree(), metrics.WeightRatio(inst.G, res.Spanner))
		}
	}
	return t, nil
}

// T7Dimension — d >= 2 generality.
func T7Dimension(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T7-dimension",
		Title:  "Dimension generality: d = 2, 3, 4 (ε=0.5, α=0.75)",
		Header: []string{"d", "n", "edges", "stretch", "maxdeg", "w/MST"},
	}
	n := cfg.baseN() / 2
	for _, d := range []int{2, 3, 4} {
		inst, err := instance(n, d, 0.75, 0, ubg.ModelAll, 700+cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := buildSeq(inst, 0.5, core.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(d, n, inst.G.M(), metrics.Stretch(inst.G, res.Spanner),
			res.Spanner.MaxDegree(), metrics.WeightRatio(inst.G, res.Spanner))
	}
	return t, nil
}

// T8Power — §1.6.3: power cost of the output vs MST and input.
func T8Power(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T8-power",
		Title:  "§1.6.3 power-cost measure: Σ_u max incident weight, relative to MST (ε=0.5)",
		Header: []string{"n", "power(G)", "power(MST)", "power(G')", "G'/MST"},
		Notes:  []string{"the extension claims the output is lightweight under power cost too: the ratio must stay in a constant band"},
	}
	for _, n := range cfg.sizes() {
		inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 800+cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		res, err := buildSeq(inst, 0.5, core.Options{})
		if err != nil {
			return nil, err
		}
		mst := graph.FromEdges(inst.G.N(), inst.G.MST())
		pm := metrics.PowerCost(mst)
		t.AddRow(n, metrics.PowerCost(inst.G), pm, metrics.PowerCost(res.Spanner),
			metrics.PowerCost(res.Spanner)/pm)
	}
	return t, nil
}

// T9Fault — §1.6.1: k-fault-tolerant spanners under random fault injection.
func T9Fault(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T9-fault",
		Title:  "§1.6.1 fault tolerance: violations under random fault injection (t=1.5)",
		Header: []string{"mode", "k", "edges", "trials", "violations", "worst stretch"},
		Notes:  []string{"k=0 rows are the negative control: the plain greedy spanner may break under faults; k≥1 rows must show zero violations"},
	}
	n := cfg.baseN() / 2
	inst, err := instance(n, 2, 0.9, 0, ubg.ModelAll, 900+cfg.Seed)
	if err != nil {
		return nil, err
	}
	trials := 30
	if cfg.Quick {
		trials = 8
	}
	addRow := func(name string, k int, sp *graph.Graph, mode fault.Mode) {
		kf := k
		if kf == 0 {
			kf = 2 // stress the control with 2 faults
		}
		res := fault.CheckFaults(inst.G, sp, 1.5, kf, trials, mode, 42+cfg.Seed)
		worst := fmt.Sprintf("%.4g", res.WorstStretch)
		if res.WorstStretch > 1e17 {
			worst = "disconnected"
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(k), fmt.Sprint(sp.M()),
			fmt.Sprint(res.Trials), fmt.Sprint(res.Violations), worst,
		})
	}
	for _, mode := range []fault.Mode{fault.EdgeFaults, fault.VertexFaults} {
		for _, k := range []int{0, 1, 2} {
			sp, err := fault.Spanner(inst.G, 1.5, k, mode)
			if err != nil {
				return nil, err
			}
			addRow("greedy/"+mode.String(), k, sp, mode)
		}
	}
	// The relaxed algorithm's own fault-tolerant variant, both modes.
	for _, k := range []int{1, 2} {
		res, err := buildSeq(inst, 0.5, core.Options{FaultK: k})
		if err != nil {
			return nil, err
		}
		addRow("relaxed/edge", k, res.Spanner, fault.EdgeFaults)
	}
	for _, k := range []int{1, 2} {
		res, err := buildSeq(inst, 0.5, core.Options{FaultK: k, FaultVertexMode: true})
		if err != nil {
			return nil, err
		}
		addRow("relaxed/vertex", k, res.Spanner, fault.VertexFaults)
	}
	return t, nil
}

// T10Energy — §1.6.2: energy metric c·|uv|^γ.
func T10Energy(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T10-energy",
		Title:  "§1.6.2 energy metric w = |uv|^γ: the output t-spans the energy metric (ε=0.5)",
		Header: []string{"gamma", "edges", "energy stretch", "t", "energy w/MST(energy)"},
	}
	n := cfg.baseN() / 2
	for _, gamma := range []float64{1, 2, 3, 4} {
		inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 1000+cfg.Seed)
		if err != nil {
			return nil, err
		}
		m := core.Metric{Coeff: 1, Gamma: gamma}
		res, err := buildSeq(inst, 0.5, core.Options{Metric: m})
		if err != nil {
			return nil, err
		}
		s := metrics.StretchVsWeights(inst.G, res.Spanner, func(_, _ int, d float64) float64 {
			return m.Weight(d)
		})
		// Energy-weighted base graph for the MST comparison.
		eg := graph.New(inst.G.N())
		for _, e := range inst.G.EdgesUnordered() {
			eg.AddEdge(e.U, e.V, m.Weight(e.W))
		}
		t.AddRow(gamma, res.Spanner.M(), s, res.Params.T, res.Spanner.TotalWeight()/eg.MSTWeight())
	}
	return t, nil
}

// T11SeqVsDist — §2 vs §3: both pipelines on identical instances.
func T11SeqVsDist(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T11-seq-vs-dist",
		Title:  "Sequential (§2) vs distributed (§3) on identical instances (ε=0.5)",
		Header: []string{"n", "seq edges", "dist edges", "seq stretch", "dist stretch", "seq maxdeg", "dist maxdeg", "rounds"},
		Notes:  []string{"outputs differ (greedy peeling vs MIS cluster covers) but both must satisfy all three guarantees"},
	}
	for _, n := range cfg.distSizes() {
		inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 1100+cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		p, err := core.NewParams(0.5, 0.75, 2)
		if err != nil {
			return nil, err
		}
		seq, err := core.Build(inst.Points, inst.G, core.Options{Params: p})
		if err != nil {
			return nil, err
		}
		dst, err := dist.Build(inst.Points, inst.G, dist.Options{Params: p, Seed: cfg.Seed + 2})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, seq.Spanner.M(), dst.Spanner.M(),
			metrics.Stretch(inst.G, seq.Spanner), metrics.Stretch(inst.G, dst.Spanner),
			seq.Spanner.MaxDegree(), dst.Spanner.MaxDegree(), dst.Rounds)
	}
	return t, nil
}

// T13Clouds — workload-shape robustness: the guarantees must hold on every
// deployment pattern, not just uniform scatter.
func T13Clouds(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T13-clouds",
		Title:  "Deployment-shape robustness: all guarantees across point-cloud workloads (ε=0.5, α=0.75)",
		Header: []string{"cloud", "n", "edges", "stretch", "maxdeg", "w/MST"},
		Notes:  []string{"clustered stresses the cluster covers, corridor maximizes hop paths, grid-jitter is the engineered-deployment pattern"},
	}
	n := cfg.baseN()
	for _, kind := range []geom.Cloud{geom.CloudUniform, geom.CloudClustered, geom.CloudCorridor, geom.CloudGridJitter} {
		inst, err := instance(n, 2, 0.75, kind, ubg.ModelAll, 1700+cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := buildSeq(inst, 0.5, core.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(kind.String(), n, inst.G.M(), metrics.Stretch(inst.G, res.Spanner),
			res.Spanner.MaxDegree(), metrics.WeightRatio(inst.G, res.Spanner))
	}
	return t, nil
}

// T14Messages — message complexity of the distributed protocol, broken down
// by step, across n.
func T14Messages(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "T14-messages",
		Title:  "Distributed message complexity by protocol step (ε=0.5)",
		Header: []string{"n", "total msgs", "gather %", "mis %", "clustergraph %", "other %", "words/msg"},
		Notes:  []string{"the k-hop gathers dominate, as the paper's information-gathering structure predicts; MIS traffic is comparatively tiny"},
	}
	for _, n := range cfg.distSizes() {
		inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 1800+cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		p, err := core.NewParams(0.5, 0.75, 2)
		if err != nil {
			return nil, err
		}
		res, err := dist.Build(inst.Points, inst.G, dist.Options{Params: p, Seed: cfg.Seed + 3})
		if err != nil {
			return nil, err
		}
		var gather, misMsgs, cgMsgs, other int64
		for step, c := range res.PerStep {
			switch {
			case strings.Contains(step, "gather"):
				gather += c.Messages
			case strings.Contains(step, "mis"):
				misMsgs += c.Messages
			case strings.Contains(step, "clustergraph"):
				cgMsgs += c.Messages
			default:
				other += c.Messages
			}
		}
		total := float64(res.Messages)
		t.AddRow(n, res.Messages,
			fmt.Sprintf("%.1f", 100*float64(gather)/total),
			fmt.Sprintf("%.2f", 100*float64(misMsgs)/total),
			fmt.Sprintf("%.1f", 100*float64(cgMsgs)/total),
			fmt.Sprintf("%.1f", 100*float64(other)/total),
			fmt.Sprintf("%.1f", float64(res.Words)/total))
	}
	return t, nil
}

// T12Ablation — contribution of each design ingredient.
func T12Ablation(cfg Config) (*Table, error) {
	n := cfg.baseN()
	inst, err := instance(n, 2, 0.75, 0, ubg.ModelAll, 1200+cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "T12-ablation",
		Title:  fmt.Sprintf("Ablation of design ingredients (n=%d, ε=0.5)", n),
		Header: []string{"variant", "edges", "stretch", "maxdeg", "w/MST", "queried", "covered", "removed"},
		Notes: []string{
			"covered-edge filter (Lemma 3) is the main query reducer; the per-cluster-pair query rule (Lemma 4) caps degree; redundancy removal (§2.2.5) trims weight; eager-updates is the non-distributable exact variant",
			"bin ratio r=2 violates the Theorem 13 constraint r < (tδ+1)/2 — the spanner stays correct but the weight band may widen",
		},
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"paper (full)", core.Options{}},
		{"no covered filter", core.Options{DisableCoveredFilter: true}},
		{"no query filter", core.Options{DisableQueryFilter: true}},
		{"no redundancy rm", core.Options{DisableRedundancy: true}},
		{"eager updates", core.Options{EagerUpdates: true}},
		{"bin ratio r=2", core.Options{BinRatio: 2}},
	}
	for _, v := range variants {
		res, err := buildSeq(inst, 0.5, v.opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, res.Spanner.M(), metrics.Stretch(inst.G, res.Spanner),
			res.Spanner.MaxDegree(), metrics.WeightRatio(inst.G, res.Spanner),
			res.Stats.Queried, res.Stats.Covered, res.Stats.RemovedRedundant)
	}
	return t, nil
}
