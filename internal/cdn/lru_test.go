package cdn

import (
	"container/list"
	"slices"
	"sync"
	"testing"

	"repro/internal/randx"
	"repro/internal/video"
)

func chunk(i int) video.ChunkID {
	return video.ChunkID{Video: video.ID(i / 100), Index: video.ChunkIndex(i % 100)}
}

func TestNewLRURejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		if _, err := NewLRU(c); err == nil {
			t.Errorf("NewLRU(%d) accepted a non-positive capacity", c)
		}
	}
	c, err := NewLRU(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Capacity(); got != 3 {
		t.Errorf("Capacity() = %d, want 3", got)
	}
	if got := c.Len(); got != 0 {
		t.Errorf("new cache Len() = %d, want 0", got)
	}
}

func TestLRUHitMissAccounting(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(chunk(1)) {
		t.Error("first access of chunk 1 reported a hit")
	}
	if !c.Access(chunk(1)) {
		t.Error("second access of chunk 1 reported a miss")
	}
	if c.Access(chunk(2)) {
		t.Error("first access of chunk 2 reported a hit")
	}
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 2 || evictions != 0 {
		t.Errorf("Stats() = (%d, %d, %d), want (1, 2, 0)", hits, misses, evictions)
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, err := NewLRU(3)
	if err != nil {
		t.Fatal(err)
	}
	// Fill 1, 2, 3 (recency now 3, 2, 1) then refresh 1 (recency 1, 3, 2).
	c.Access(chunk(1))
	c.Access(chunk(2))
	c.Access(chunk(3))
	c.Access(chunk(1))
	wantKeys := []video.ChunkID{chunk(1), chunk(3), chunk(2)}
	for i, k := range c.Keys() {
		if k != wantKeys[i] {
			t.Fatalf("Keys()[%d] = %v, want %v (full order %v)", i, k, wantKeys[i], c.Keys())
		}
	}
	// Inserting 4 must evict 2, the least-recently-used entry.
	c.Access(chunk(4))
	if c.Contains(chunk(2)) {
		t.Error("chunk 2 survived the eviction; LRU order is wrong")
	}
	for _, keep := range []int{1, 3, 4} {
		if !c.Contains(chunk(keep)) {
			t.Errorf("chunk %d was evicted but is not the LRU entry", keep)
		}
	}
	_, _, evictions := c.Stats()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len() = %d, want capacity 3", got)
	}
}

func TestLRUContainsDoesNotTouchRecency(t *testing.T) {
	c, err := NewLRU(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(chunk(1))
	c.Access(chunk(2))
	// A Contains probe of 1 must not refresh it: inserting 3 still evicts 1.
	if !c.Contains(chunk(1)) {
		t.Fatal("chunk 1 missing after insert")
	}
	c.Access(chunk(3))
	if c.Contains(chunk(1)) {
		t.Error("Contains refreshed recency: chunk 1 survived, chunk 2 evicted")
	}
	hits, misses, _ := c.Stats()
	if hits != 0 || misses != 3 {
		t.Errorf("Contains touched the counters: hits %d misses %d, want 0 and 3", hits, misses)
	}
}

// TestLRURaceHammer drives one cache from many goroutines; -race in CI pins
// that every method is mutex-guarded (the daemon's shard worker pool shares
// edge state across goroutines).
func TestLRURaceHammer(t *testing.T) {
	c, err := NewLRU(64)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				id := chunk((w*31 + i) % 200)
				switch i % 4 {
				case 0, 1:
					c.Access(id)
				case 2:
					c.Contains(id)
				default:
					c.Keys()
					c.Len()
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses, evictions := c.Stats()
	if hits+misses != workers*opsPerWorker/2 {
		t.Errorf("hits %d + misses %d != %d Access calls", hits, misses, workers*opsPerWorker/2)
	}
	if int(misses)-int(evictions) != c.Len() {
		t.Errorf("misses %d - evictions %d != Len %d (insert/evict accounting broken)",
			misses, evictions, c.Len())
	}
	if c.Len() > c.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

// listLRU is the reference model: the container/list cache the LRU's
// index-linked slice replaced.
type listLRU struct {
	cap                     int
	order                   *list.List
	items                   map[video.ChunkID]*list.Element
	hits, misses, evictions uint64
}

func (m *listLRU) access(id video.ChunkID) bool {
	if e, ok := m.items[id]; ok {
		m.order.MoveToFront(e)
		m.hits++
		return true
	}
	m.misses++
	if m.order.Len() >= m.cap {
		lru := m.order.Back()
		m.order.Remove(lru)
		delete(m.items, lru.Value.(video.ChunkID))
		m.evictions++
	}
	m.items[id] = m.order.PushFront(id)
	return false
}

func (m *listLRU) keys() []video.ChunkID {
	var out []video.ChunkID
	for e := m.order.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(video.ChunkID))
	}
	return out
}

// TestLRUMatchesListModel drives the LRU and the container/list model with
// the same random accesses: every hit/miss answer, the recency order and the
// counters must agree throughout.
func TestLRUMatchesListModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 64} {
		c, err := NewLRU(capacity)
		if err != nil {
			t.Fatal(err)
		}
		m := &listLRU{cap: capacity, order: list.New(), items: map[video.ChunkID]*list.Element{}}
		rng := randx.New(uint64(capacity))
		universe := 3*capacity/2 + 2 // enough reuse for hits, enough spread for evictions
		for i := range 10000 {
			id := chunk(rng.Intn(universe))
			if got, want := c.Access(id), m.access(id); got != want {
				t.Fatalf("cap %d access %d (%v): hit = %v, model %v", capacity, i, id, got, want)
			}
			if i%97 == 0 || i == 9999 {
				if got, want := c.Keys(), m.keys(); !slices.Equal(got, want) {
					t.Fatalf("cap %d after access %d: Keys() = %v, model %v", capacity, i, got, want)
				}
			}
		}
		hits, misses, evictions := c.Stats()
		if hits != m.hits || misses != m.misses || evictions != m.evictions {
			t.Errorf("cap %d: Stats() = (%d, %d, %d), model (%d, %d, %d)",
				capacity, hits, misses, evictions, m.hits, m.misses, m.evictions)
		}
		if m.hits == 0 || m.evictions == 0 {
			t.Errorf("cap %d: the access stream produced %d hits and %d evictions; it must exercise both",
				capacity, m.hits, m.evictions)
		}
	}
}

// TestLRUAccessAllocs pins the edge cache's hot path: on a full cache
// neither a hit nor a miss (which evicts and reuses the tail's slot)
// allocates.
func TestLRUAccessAllocs(t *testing.T) {
	const capacity = 64
	c, err := NewLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i := range capacity {
		c.Access(chunk(i))
	}
	next := capacity
	allocs := testing.AllocsPerRun(1000, func() {
		c.Access(chunk(next - capacity/2)) // hit
		c.Access(chunk(next))              // miss: evicts the LRU entry
		next++
	})
	if allocs != 0 {
		t.Fatalf("Access on a full cache allocates %v per op, want 0", allocs)
	}
	if hits, misses, _ := c.Stats(); hits == 0 || misses <= capacity {
		t.Fatalf("Stats() = %d hits, %d misses: the loop must both hit and miss", hits, misses)
	}
}
