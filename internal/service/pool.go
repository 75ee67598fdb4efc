package service

import (
	"sync/atomic"

	"topoctl/internal/graph"
)

// searcherPool is a lazily-filled, bounded pool of searchers shared by
// every snapshot of one service. Nothing is allocated at construction:
// the first acquire on an empty pool builds a searcher on demand, and
// release keeps at most the configured number around, so an idle service
// holds no search scratch. allocs counts the demand-driven constructions,
// pinned by the allocation test.
type searcherPool struct {
	ch     chan *graph.Searcher
	allocs atomic.Uint64
}

func newSearcherPool(size int) *searcherPool {
	if size < 1 {
		size = 1
	}
	return &searcherPool{ch: make(chan *graph.Searcher, size)}
}

// acquire returns a pooled searcher, or builds one sized for n vertices
// when the pool is empty (it never blocks: under burst load extra
// searchers are allocated and the surplus dropped on release).
func (p *searcherPool) acquire(n int) *graph.Searcher {
	select {
	case srch := <-p.ch:
		return srch
	default:
		p.allocs.Add(1)
		return graph.NewSearcher(n)
	}
}

func (p *searcherPool) release(srch *graph.Searcher) {
	select {
	case p.ch <- srch:
	default:
	}
}
