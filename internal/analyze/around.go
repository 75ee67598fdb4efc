package analyze

import (
	"fmt"

	"topoctl/internal/graph"
)

// AroundRequest asks for the k-hop neighborhood of a vertex.
type AroundRequest struct {
	// Center is the vertex to explore around.
	Center int `json:"center"`
	// Hops is the BFS radius in edges (callers default/cap this).
	Hops int `json:"hops"`
	// Graph selects the topology: "spanner" (default) or "base".
	Graph string `json:"graph,omitempty"`
	// MaxNodes truncates the ball in BFS order; 0 means no cap.
	MaxNodes int `json:"max_nodes,omitempty"`
}

// CytoElements is the neighborhood subgraph in the Cytoscape.js elements
// shape: {"elements":{"nodes":[...],"edges":[...]}} loads directly into a
// viewer.
type CytoElements struct {
	Nodes []CytoNode `json:"nodes"`
	Edges []CytoEdge `json:"edges"`
}

// CytoNode is one vertex with its embedding position.
type CytoNode struct {
	Data     CytoNodeData  `json:"data"`
	Position *CytoPosition `json:"position,omitempty"`
}

// CytoNodeData carries per-vertex attributes.
type CytoNodeData struct {
	// ID is "n<vertex>"; Cytoscape ids are strings.
	ID string `json:"id"`
	// Vertex is the numeric id, Hops its BFS distance from the center.
	Vertex int `json:"vertex"`
	Hops   int `json:"hops"`
	// Degree is the vertex degree in the selected topology.
	Degree int `json:"degree"`
	// Center marks the query vertex.
	Center bool `json:"center,omitempty"`
}

// CytoPosition is the first two embedding coordinates.
type CytoPosition struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// CytoEdge is one edge of the induced subgraph.
type CytoEdge struct {
	Data CytoEdgeData `json:"data"`
}

// CytoEdgeData carries per-edge attributes; Source/Target reference node
// ids.
type CytoEdgeData struct {
	ID     string  `json:"id"`
	Source string  `json:"source"`
	Target string  `json:"target"`
	Weight float64 `json:"weight"`
}

// AroundReport is the k-hop neighborhood plus summary counts.
type AroundReport struct {
	Center int `json:"center"`
	Hops   int `json:"hops"`
	// Graph echoes the resolved topology selector.
	Graph string `json:"graph"`
	// Nodes/Edges count the returned subgraph; Truncated is set when
	// MaxNodes cut the ball short.
	Nodes     int          `json:"nodes"`
	Edges     int          `json:"edges"`
	Truncated bool         `json:"truncated"`
	Elements  CytoElements `json:"elements"`
}

// Around extracts the induced subgraph within req.Hops edges of a center
// vertex, shaped for a Cytoscape-style topology viewer: every reached
// vertex becomes a positioned node, every edge of the selected topology
// with both endpoints in the ball becomes an edge.
func Around(v View, req AroundRequest, opts Options) (*AroundReport, error) {
	if !v.alive(req.Center) {
		return nil, fmt.Errorf("%w: vertex %d", ErrUnknownVertex, req.Center)
	}
	if req.Hops < 0 {
		return nil, fmt.Errorf("%w: hops must be non-negative", ErrBadQuery)
	}
	topo := v.Spanner
	name := req.Graph
	switch name {
	case "", "spanner":
		name = "spanner"
	case "base":
		topo = v.Base
	default:
		return nil, fmt.Errorf("%w: unknown graph %q", ErrBadQuery, req.Graph)
	}

	srch := graph.AcquireSearcher(v.n())
	ball := srch.HopBall(topo, req.Center, req.Hops)
	rep := &AroundReport{Center: req.Center, Hops: req.Hops, Graph: name}
	if req.MaxNodes > 0 && len(ball) > req.MaxNodes {
		// HopBall returns BFS order, so a prefix is the nearest subset.
		ball = ball[:req.MaxNodes]
		rep.Truncated = true
	}

	inBall := make(map[int]int, len(ball)) // vertex -> hops
	for _, vh := range ball {
		inBall[vh.V] = vh.Hops
	}
	nodes := make([]CytoNode, 0, len(ball))
	var edges []CytoEdge
	for _, vh := range ball {
		node := CytoNode{Data: CytoNodeData{
			ID:     fmt.Sprintf("n%d", vh.V),
			Vertex: vh.V,
			Hops:   vh.Hops,
			Degree: topo.Degree(vh.V),
			Center: vh.V == req.Center,
		}}
		if vh.V < len(v.Points) {
			if p := v.Points[vh.V]; len(p) >= 2 {
				node.Position = &CytoPosition{X: p[0], Y: p[1]}
			}
		}
		nodes = append(nodes, node)
		for _, h := range topo.Neighbors(vh.V) {
			if h.To > vh.V { // each undirected edge once
				if _, ok := inBall[h.To]; ok {
					edges = append(edges, CytoEdge{Data: CytoEdgeData{
						ID:     fmt.Sprintf("e%d-%d", vh.V, h.To),
						Source: fmt.Sprintf("n%d", vh.V),
						Target: fmt.Sprintf("n%d", h.To),
						Weight: h.W,
					}})
				}
			}
		}
	}
	// Release only after the last use of ball: HopBall's result aliases
	// the searcher's scratch.
	graph.ReleaseSearcher(srch)

	rep.Nodes, rep.Edges = len(nodes), len(edges)
	rep.Elements = CytoElements{Nodes: nodes, Edges: edges}
	return rep, nil
}
