package cdn

import (
	"fmt"
	"sync"

	"repro/internal/video"
)

// LRU is an edge server's chunk cache: a fixed-capacity least-recently-used
// set over global chunk ids. Access is the one hot-path operation — it
// reports a hit (recency refreshed) or records a miss (chunk inserted,
// evicting the least-recently-used entry when full), which is exactly the
// edge's serve-or-fill-from-origin decision.
//
// The cache is safe for concurrent use: the sim engines access it from one
// goroutine, but the daemon's slot pipeline and the shard worker pool may
// share edge state across goroutines, so every method takes the mutex (the
// race hammer in lru_test.go pins this under -race).
type LRU struct {
	mu  sync.Mutex
	cap int
	// entries holds the cached chunks, doubly linked by index into recency
	// order from head (most recently used) to tail (least); noEntry ends
	// the list. A miss on a full cache reuses the tail's slot, so the
	// slice never grows past the capacity and a full cache allocates
	// nothing. items indexes entries by chunk id.
	entries    []lruEntry
	head, tail int
	items      map[video.ChunkID]int

	hits, misses, evictions uint64
}

// lruEntry is one cached chunk and its recency-list links.
type lruEntry struct {
	id         video.ChunkID
	prev, next int
}

// noEntry is the nil link of the recency list.
const noEntry = -1

// NewLRU creates an empty cache holding up to capacity chunks.
func NewLRU(capacity int) (*LRU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cdn: LRU capacity must be positive, got %d", capacity)
	}
	return &LRU{
		cap:     capacity,
		entries: make([]lruEntry, 0, capacity),
		head:    noEntry,
		tail:    noEntry,
		items:   make(map[video.ChunkID]int, capacity),
	}, nil
}

// Access serves chunk id from the cache: true is a hit (the entry becomes
// most-recently-used), false a miss (the chunk is fetched over backhaul,
// inserted as most-recently-used, and the least-recently-used entry is
// evicted if the cache is full).
func (c *LRU) Access(id video.ChunkID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.items[id]; ok {
		if i != c.head {
			c.unlink(i)
			c.pushFront(i)
		}
		c.hits++
		return true
	}
	c.misses++
	var i int
	if len(c.entries) >= c.cap {
		i = c.tail
		c.unlink(i)
		delete(c.items, c.entries[i].id)
		c.entries[i].id = id
		c.evictions++
	} else {
		i = len(c.entries)
		c.entries = append(c.entries, lruEntry{id: id})
	}
	c.pushFront(i)
	c.items[id] = i
	return false
}

// unlink removes entry i from the recency list.
func (c *LRU) unlink(i int) {
	e := &c.entries[i]
	if e.prev == noEntry {
		c.head = e.next
	} else {
		c.entries[e.prev].next = e.next
	}
	if e.next == noEntry {
		c.tail = e.prev
	} else {
		c.entries[e.next].prev = e.prev
	}
}

// pushFront links entry i in as the most recently used.
func (c *LRU) pushFront(i int) {
	e := &c.entries[i]
	e.prev, e.next = noEntry, c.head
	if c.head == noEntry {
		c.tail = i
	} else {
		c.entries[c.head].prev = i
	}
	c.head = i
}

// Contains reports presence without touching recency or the hit/miss
// counters (for tests and diagnostics).
func (c *LRU) Contains(id video.ChunkID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[id]
	return ok
}

// Len returns the number of cached chunks.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Capacity returns the configured capacity.
func (c *LRU) Capacity() int { return c.cap }

// Keys returns the cached chunk ids in recency order, most-recently-used
// first (for eviction-order tests and cache dumps).
func (c *LRU) Keys() []video.ChunkID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]video.ChunkID, 0, len(c.entries))
	for i := c.head; i != noEntry; i = c.entries[i].next {
		out = append(out, c.entries[i].id)
	}
	return out
}

// Stats returns the lifetime hit/miss/eviction counters.
func (c *LRU) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
