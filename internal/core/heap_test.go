package core

import (
	"container/heap"
	"testing"

	"repro/internal/randx"
)

// boxedBidHeap re-implements the old container/heap plumbing so the parity
// test can pin that the hand-rolled sift methods reproduce the standard
// library's array layout move for move (the eviction order, and with it
// every downstream bid, depends on it).
type boxedBidHeap []acceptedBid

func (h boxedBidHeap) Len() int { return len(h) }
func (h boxedBidHeap) Less(i, j int) bool {
	if h[i].bid != h[j].bid {
		return h[i].bid < h[j].bid
	}
	return h[i].req > h[j].req
}
func (h boxedBidHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *boxedBidHeap) Push(x any)   { *h = append(*h, x.(acceptedBid)) }
func (h *boxedBidHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

func TestBidHeapMatchesContainerHeap(t *testing.T) {
	rng := randx.New(7)
	var direct bidHeap
	var boxed boxedBidHeap
	same := func() {
		t.Helper()
		if len(direct) != len(boxed) {
			t.Fatalf("heap sizes diverged: %d vs %d", len(direct), len(boxed))
		}
		for i := range direct {
			if direct[i] != boxed[i] {
				t.Fatalf("layout diverged at %d: %+v vs %+v (full: %v vs %v)",
					i, direct[i], boxed[i], direct, boxed)
			}
		}
	}
	for op := 0; op < 20_000; op++ {
		switch {
		case len(direct) == 0 || rng.Float64() < 0.55:
			ab := acceptedBid{req: RequestID(op), bid: float64(rng.Intn(40))}
			direct.push(ab)
			heap.Push(&boxed, ab)
		default:
			got := direct.popMin()
			want := heap.Pop(&boxed).(acceptedBid)
			if got != want {
				t.Fatalf("popMin %+v, container/heap popped %+v", got, want)
			}
		}
		same()
	}
}

// BenchmarkBidHeapPushPop measures the auctioneer book's steady state: a
// full book evicting and re-accepting one bid per operation, the exact
// shape of a contested sink under bidding. The point of the hand-rolled
// sift methods is the allocs/op column: container/heap boxed every pushed
// bid through an `any`, one heap allocation per accepted bid; the direct
// methods run the same layout at zero.
func BenchmarkBidHeapPushPop(b *testing.B) {
	rng := randx.New(42)
	const book = 64
	var h bidHeap
	for i := 0; i < book; i++ {
		h.push(acceptedBid{req: RequestID(i), bid: rng.Range(0, 8)})
	}
	bids := make([]float64, 1024)
	for i := range bids {
		bids[i] = rng.Range(0, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.popMin()
		h.push(acceptedBid{req: RequestID(book + i), bid: bids[i%len(bids)]})
	}
}
