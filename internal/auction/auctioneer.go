package auction

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/protocol"
	"repro/internal/video"
)

// Win is one unit of bandwidth sold: bidder, chunk, and the winning bid.
type Win struct {
	Bidder PeerRef
	Chunk  video.ChunkID
	Bid    float64
}

// winHeap is a min-heap on bid value with deterministic tie-breaking
// (higher (bidder, chunk) evicted first among equal bids).
type winHeap []Win

func (h winHeap) Len() int { return len(h) }
func (h winHeap) Less(i, j int) bool {
	if h[i].Bid != h[j].Bid {
		return h[i].Bid < h[j].Bid
	}
	if h[i].Bidder != h[j].Bidder {
		return h[i].Bidder > h[j].Bidder
	}
	return !chunkLess(h[i].Chunk, h[j].Chunk)
}
func (h winHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *winHeap) Push(x any)   { *h = append(*h, x.(Win)) }
func (h *winHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Auctioneer is the per-peer allocator module of Alg. 1: it sells B(u) units
// of upload bandwidth per slot to the highest bidders and maintains the unit
// price λ_u.
type Auctioneer struct {
	capacity int
	accepted winHeap
	price    float64
	bidsSeen int
	evicted  int
}

// NewAuctioneer creates an allocator with the given per-slot capacity B(u).
func NewAuctioneer(capacity int) (*Auctioneer, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("auction: negative capacity %d", capacity)
	}
	return &Auctioneer{capacity: capacity}, nil
}

// StartSlot resets the assignment set and price for a new slot, optionally
// changing capacity (upload budget can vary per slot).
func (a *Auctioneer) StartSlot(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("auction: negative capacity %d", capacity)
	}
	a.capacity = capacity
	a.accepted = a.accepted[:0]
	a.price = 0
	a.bidsSeen = 0
	a.evicted = 0
	return nil
}

// Price returns the current unit-bandwidth price λ_u.
func (a *Auctioneer) Price() float64 { return a.price }

// Capacity returns B(u) for this slot.
func (a *Auctioneer) Capacity() int { return a.capacity }

// Allocated returns how many units are currently sold.
func (a *Auctioneer) Allocated() int { return len(a.accepted) }

// full reports whether the assignment set is at capacity.
func (a *Auctioneer) full() bool { return len(a.accepted) >= a.capacity }

// OnBid processes one bid per Alg. 1 auctioneer lines 2–13 and returns the
// messages to send: a BidResult to the bidder, an Evict to any displaced
// bidder, and a broadcast PriceUpdate when λ_u changes.
func (a *Auctioneer) OnBid(from PeerRef, m protocol.Bid) []Outbound {
	a.bidsSeen++
	var out []Outbound
	if a.capacity == 0 {
		// Cannot sell anything, ever: report an infinite price so the bidder
		// permanently writes this peer off.
		return append(out, Outbound{To: from, Msg: protocol.BidResult{
			Chunk: m.Chunk, Accepted: false, Price: math.Inf(1),
		}})
	}
	if m.Amount <= a.price {
		return append(out, Outbound{To: from, Msg: protocol.BidResult{
			Chunk: m.Chunk, Accepted: false, Price: a.price,
		}})
	}
	oldPrice := a.price
	if a.full() {
		lowest, ok := heap.Pop(&a.accepted).(Win)
		if !ok {
			panic("auction: win heap corrupted")
		}
		a.evicted++
		out = append(out, Outbound{To: lowest.Bidder, Msg: protocol.Evict{
			Chunk: lowest.Chunk, Price: a.price,
		}})
	}
	heap.Push(&a.accepted, Win{Bidder: from, Chunk: m.Chunk, Bid: m.Amount})
	if a.full() {
		a.price = a.accepted[0].Bid
	}
	out = append(out, Outbound{To: from, Msg: protocol.BidResult{
		Chunk: m.Chunk, Accepted: true, Price: a.price,
	}})
	if a.price != oldPrice {
		out = append(out, Outbound{To: Broadcast, Msg: protocol.PriceUpdate{Price: a.price}})
	}
	return out
}

// RemoveBidder withdraws every unit held by a departed peer (churn handling:
// "the algorithm can handle it smoothly", §IV.C). Freed units make the set
// non-full, so λ_u drops back to 0 per the paper's pricing rule; the new
// price is broadcast so waiting bidders can move in.
func (a *Auctioneer) RemoveBidder(peer PeerRef) []Outbound {
	kept := a.accepted[:0]
	removed := 0
	for _, w := range a.accepted {
		if w.Bidder == peer {
			removed++
			continue
		}
		kept = append(kept, w)
	}
	if removed == 0 {
		return nil
	}
	a.accepted = kept
	heap.Init(&a.accepted)
	oldPrice := a.price
	if !a.full() {
		a.price = 0
	}
	if a.price != oldPrice {
		return []Outbound{{To: Broadcast, Msg: protocol.PriceUpdate{Price: a.price}}}
	}
	return nil
}

// Winners returns the current assignment set in deterministic order
// (descending bid, then bidder, then chunk).
func (a *Auctioneer) Winners() []Win {
	wins := make([]Win, len(a.accepted))
	copy(wins, a.accepted)
	sortWins(wins)
	return wins
}

// BidsSeen returns the number of bids processed this slot.
func (a *Auctioneer) BidsSeen() int { return a.bidsSeen }

// Evictions returns the number of displaced bids this slot.
func (a *Auctioneer) Evictions() int { return a.evicted }

func sortWins(wins []Win) {
	sort.Slice(wins, func(i, j int) bool {
		if wins[i].Bid != wins[j].Bid {
			return wins[i].Bid > wins[j].Bid
		}
		if wins[i].Bidder != wins[j].Bidder {
			return wins[i].Bidder < wins[j].Bidder
		}
		return chunkLess(wins[i].Chunk, wins[j].Chunk)
	})
}
