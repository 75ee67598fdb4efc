package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"topoctl/internal/analyze"
)

// Validation limits for the /analyze family. Analysis queries are the most
// expensive reads the daemon serves, so every knob that scales work or
// response size is capped here; the time cap (Options.AnalyzeTimeout)
// backstops whatever the caps still let through.
const (
	// MaxFaultVertices bounds an impact request's explicit fault set.
	MaxFaultVertices = 1024
	// MaxAnalyzeWitnesses bounds witness lists in impact and divergence
	// reports.
	MaxAnalyzeWitnesses = 256
	// MaxUnreachableList bounds the newly-unreachable vertex list of an
	// impact report (the count stays exact past the cap).
	MaxUnreachableList = 4096
	// DefaultAroundHops / MaxAroundHops bound the /analyze/around BFS
	// radius; DefaultAroundNodes / MaxAroundNodes its subgraph size.
	// A zero-hop request means "default", not an empty ball.
	DefaultAroundHops  = 2
	MaxAroundHops      = 16
	DefaultAroundNodes = 512
	MaxAroundNodes     = 8192
	// MaxDivergenceSample / MaxDivergenceBuckets bound the divergence
	// stretch probe and its histogram resolution.
	MaxDivergenceSample  = 4096
	MaxDivergenceBuckets = 64
)

// analyzeEndpoint indexes the per-endpoint serving counters.
type analyzeEndpoint int

const (
	epImpact analyzeEndpoint = iota
	epAround
	epRoute
	epDivergence
	analyzeEndpoints
)

var analyzeEndpointNames = [analyzeEndpoints]string{"impact", "around", "route", "divergence"}

// analyzeCounter tracks one endpoint: request count and worst duration.
type analyzeCounter struct {
	count   atomic.Uint64
	worstNs atomic.Int64
}

func (c *analyzeCounter) observe(d time.Duration) {
	c.count.Add(1)
	ns := d.Nanoseconds()
	for {
		cur := c.worstNs.Load()
		if ns <= cur || c.worstNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// AnalyzeEndpointStats is one endpoint's serving record in /stats.
type AnalyzeEndpointStats struct {
	Requests uint64  `json:"requests"`
	WorstMs  float64 `json:"worst_ms"`
}

// analyzeStats assembles the /stats analyze section.
func (c *counters) analyzeStats() map[string]AnalyzeEndpointStats {
	out := make(map[string]AnalyzeEndpointStats, analyzeEndpoints)
	for i := range c.analyze {
		out[analyzeEndpointNames[i]] = AnalyzeEndpointStats{
			Requests: c.analyze[i].count.Load(),
			WorstMs:  float64(c.analyze[i].worstNs.Load()) / 1e6,
		}
	}
	return out
}

// analyzeView bundles this snapshot's frozen state for the analyze
// package. The oracle is attached only when present — assigning a nil
// *labels.Oracle into the interface field would make it non-nil.
func (s *Snapshot) analyzeView() analyze.View {
	v := analyze.View{
		Points:  s.Points,
		Alive:   s.Alive,
		Base:    s.Base,
		Spanner: s.Spanner,
		T:       s.T,
	}
	if s.oracle != nil {
		v.Oracle = s.oracle
	}
	return v
}

// analyzeOptions is the per-query resource budget: the configured
// wall-clock cap.
func (s *Snapshot) analyzeOptions() analyze.Options {
	return analyze.Options{MaxDuration: s.analyzeTimeout}
}

func (s *Snapshot) observeAnalyze(ep analyzeEndpoint, start time.Time) {
	s.ctr.analyze[ep].observe(time.Since(start))
}

// AnalyzeImpactResponse is the POST /analyze/impact reply.
type AnalyzeImpactResponse struct {
	analyze.ImpactReport
	Version uint64 `json:"version"`
}

// AnalyzeImpact answers a failure-impact query against this frozen
// topology version.
func (s *Snapshot) AnalyzeImpact(req analyze.ImpactRequest) (*AnalyzeImpactResponse, error) {
	if len(req.Vertices) > MaxFaultVertices {
		return nil, fmt.Errorf("%w: fault set of %d vertices exceeds the limit of %d",
			analyze.ErrBadQuery, len(req.Vertices), MaxFaultVertices)
	}
	if req.MaxWitnesses < 0 || req.MaxWitnesses > MaxAnalyzeWitnesses {
		return nil, fmt.Errorf("%w: max_witnesses outside [0, %d]", analyze.ErrBadQuery, MaxAnalyzeWitnesses)
	}
	if req.MaxUnreachable <= 0 || req.MaxUnreachable > MaxUnreachableList {
		req.MaxUnreachable = MaxUnreachableList
	}
	defer s.observeAnalyze(epImpact, time.Now())
	rep, err := analyze.Impact(s.analyzeView(), req, s.analyzeOptions())
	if err != nil {
		return nil, err
	}
	return &AnalyzeImpactResponse{ImpactReport: *rep, Version: s.Version}, nil
}

// AnalyzeAroundResponse is the POST /analyze/around reply.
type AnalyzeAroundResponse struct {
	analyze.AroundReport
	Version uint64 `json:"version"`
}

// AnalyzeAround answers a k-hop neighborhood query against this frozen
// topology version.
func (s *Snapshot) AnalyzeAround(req analyze.AroundRequest) (*AnalyzeAroundResponse, error) {
	if req.Hops == 0 {
		req.Hops = DefaultAroundHops
	}
	if req.Hops < 0 || req.Hops > MaxAroundHops {
		return nil, fmt.Errorf("%w: hops outside [1, %d]", analyze.ErrBadQuery, MaxAroundHops)
	}
	if req.MaxNodes <= 0 || req.MaxNodes > MaxAroundNodes {
		req.MaxNodes = MaxAroundNodes
	}
	defer s.observeAnalyze(epAround, time.Now())
	rep, err := analyze.Around(s.analyzeView(), req, s.analyzeOptions())
	if err != nil {
		return nil, err
	}
	return &AnalyzeAroundResponse{AroundReport: *rep, Version: s.Version}, nil
}

// AnalyzeRouteRequest is the POST /analyze/route body.
type AnalyzeRouteRequest struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// AnalyzeRouteResponse is the POST /analyze/route reply.
type AnalyzeRouteResponse struct {
	analyze.RouteExplanation
	Version uint64 `json:"version"`
}

// AnalyzeRoute explains one route against this frozen topology version.
func (s *Snapshot) AnalyzeRoute(req AnalyzeRouteRequest) (*AnalyzeRouteResponse, error) {
	defer s.observeAnalyze(epRoute, time.Now())
	exp, err := analyze.Explain(s.analyzeView(), req.Src, req.Dst, s.analyzeOptions())
	if err != nil {
		return nil, err
	}
	return &AnalyzeRouteResponse{RouteExplanation: *exp, Version: s.Version}, nil
}

// AnalyzeDivergenceResponse is the GET /analyze/divergence reply.
type AnalyzeDivergenceResponse struct {
	analyze.DivergenceReport
	Version uint64 `json:"version"`
}

// AnalyzeDivergence reports the spanner-vs-base divergence of this frozen
// topology version.
func (s *Snapshot) AnalyzeDivergence(req analyze.DivergenceRequest) (*AnalyzeDivergenceResponse, error) {
	if req.Sample < 0 || req.Sample > MaxDivergenceSample {
		return nil, fmt.Errorf("%w: sample outside [0, %d]", analyze.ErrBadQuery, MaxDivergenceSample)
	}
	if req.Buckets < 0 || req.Buckets > MaxDivergenceBuckets {
		return nil, fmt.Errorf("%w: buckets outside [0, %d]", analyze.ErrBadQuery, MaxDivergenceBuckets)
	}
	if req.MaxWitnesses < 0 || req.MaxWitnesses > MaxAnalyzeWitnesses {
		return nil, fmt.Errorf("%w: max_witnesses outside [0, %d]", analyze.ErrBadQuery, MaxAnalyzeWitnesses)
	}
	defer s.observeAnalyze(epDivergence, time.Now())
	rep, err := analyze.Divergence(s.analyzeView(), req, s.analyzeOptions())
	if err != nil {
		return nil, err
	}
	return &AnalyzeDivergenceResponse{DivergenceReport: *rep, Version: s.Version}, nil
}
