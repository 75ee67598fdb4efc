package graphtest

import (
	"testing"

	"topoctl/internal/graph"
)

func TestIsSubgraphOf(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	h := graph.New(3)
	h.AddEdge(0, 1, 1)
	h.AddEdge(1, 2, 1)
	if !IsSubgraphOf(g, h) {
		t.Error("g should be a subgraph of h")
	}
	if IsSubgraphOf(h, g) {
		t.Error("h should not be a subgraph of g")
	}
	if IsSubgraphOf(g, graph.New(4)) {
		t.Error("different vertex counts should fail")
	}
}
