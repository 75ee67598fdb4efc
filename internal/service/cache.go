package service

import (
	"sync"

	"topoctl/internal/routing"
)

// routeKey identifies one cached route computation.
type routeKey struct {
	scheme   routing.Scheme
	src, dst int32
}

// cacheShards must be a power of two (the shard picker masks the hash).
const cacheShards = 16

// routeCache is a sharded fixed-capacity LRU over route results. Each
// snapshot owns a fresh cache, so cache entries can never outlive the
// topology they were computed on — the hot-swap IS the invalidation. The
// sharding keeps the lock a reader takes on the hot path uncontended well
// past the concurrency levels the stress test and load generator drive.
//
// Hit/miss/eviction counters are service-lifetime aggregates and live in
// the service's counters struct as atomics (not under the shard locks) so
// /stats can read them without touching any shard.
type routeCache struct {
	shards [cacheShards]cacheShard
	ctr    *counters
}

// cacheShard is one lock-striped LRU: a slot-addressed entry arena whose
// recency list is threaded through prev/next indices (no per-entry
// allocations, no container/list boxing).
type cacheShard struct {
	mu         sync.Mutex
	index      map[routeKey]int32
	entries    []cacheEntry
	head, tail int32 // most / least recently used; -1 when empty
	capacity   int
}

type cacheEntry struct {
	key        routeKey
	val        RouteResult
	prev, next int32
}

// newRouteCache builds a cache with roughly the given total capacity,
// counting hits, misses, and evictions into the provided service-lifetime
// counters. Every commit publishes a fresh cache, so a shard allocates
// nothing until its first put: its index and arena grow with use.
func newRouteCache(capacity int, ctr *counters) *routeCache {
	per := capacity / cacheShards
	if per < 4 {
		per = 4
	}
	c := &routeCache{ctr: ctr}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		s.head, s.tail = -1, -1
	}
	return c
}

func (c *routeCache) shard(k routeKey) *cacheShard {
	h := uint32(k.src)*0x9e3779b1 ^ uint32(k.dst)*0x85ebca6b ^ uint32(k.scheme)
	h ^= h >> 16
	return &c.shards[h&(cacheShards-1)]
}

func (c *routeCache) get(k routeKey) (RouteResult, bool) {
	v, ok := c.shard(k).get(k)
	if ok {
		c.ctr.cacheHits.Add(1)
	} else {
		c.ctr.cacheMiss.Add(1)
	}
	return v, ok
}

func (c *routeCache) put(k routeKey, v RouteResult) {
	if c.shard(k).put(k, v) {
		c.ctr.cacheEvict.Add(1)
	}
}

func (s *cacheShard) get(k routeKey) (RouteResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[k]
	if !ok {
		return RouteResult{}, false
	}
	s.touch(i)
	return s.entries[i].val, true
}

// put inserts or refreshes k, reporting whether it evicted an entry.
func (s *cacheShard) put(k routeKey, v RouteResult) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index = make(map[routeKey]int32)
	}
	if i, ok := s.index[k]; ok {
		s.entries[i].val = v
		s.touch(i)
		return false
	}
	var i int32
	evicted := false
	if len(s.entries) < s.capacity {
		i = int32(len(s.entries))
		s.entries = append(s.entries, cacheEntry{})
	} else {
		i = s.tail // evict the least recently used entry in place
		s.unlink(i)
		delete(s.index, s.entries[i].key)
		evicted = true
	}
	s.entries[i] = cacheEntry{key: k, val: v, prev: -1, next: -1}
	s.index[k] = i
	s.pushFront(i)
	return evicted
}

// len reports the number of cached entries (for tests and /stats).
func (c *routeCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// touch moves entry i to the front of the recency list.
func (s *cacheShard) touch(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

func (s *cacheShard) unlink(i int32) {
	e := &s.entries[i]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (s *cacheShard) pushFront(i int32) {
	e := &s.entries[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.entries[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}
