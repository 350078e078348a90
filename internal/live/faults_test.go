package live

import (
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/fault"
	"repro/internal/video"
)

// TestDelayedLinksStillConverge: with every forwarded envelope delayed, the
// live auction reaches the same outcome as on a clean network — delays are
// in-order per source, so the protocol just converges slower.
func TestDelayedLinksStillConverge(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	inj, err := fault.NewInjector(fault.Spec{DelayMax: 3 * time.Millisecond}, 42)
	if err != nil {
		t.Fatal(err)
	}
	hub.SetLinkFaults(inj)

	seller, err := Dial(hub.Addr(), 1, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer seller.Close()
	seller.SetNeighbors([]int32{2, 3})
	buyers := make([]*Peer, 2)
	for i := range buyers {
		p, err := Dial(hub.Addr(), int32(2+i), 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.SetNeighbors([]int32{1})
		buyers[i] = p
	}

	chunk := video.ChunkID{Video: 0, Index: 7}
	for i, b := range buyers {
		err := b.Bid([]auction.Request{{
			Chunk: chunk, Value: float64(4 + 2*i),
			Candidates: []auction.Candidate{{Peer: 1, Cost: 1}},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range append([]*Peer{seller}, buyers...) {
		if err := p.WaitQuiescent(100*time.Millisecond, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	winners := seller.Winners()
	if len(winners) != 1 || winners[0].Bidder != 3 {
		t.Fatalf("delayed network changed the outcome: %+v", winners)
	}
	if st := inj.Stats(); st.Delays == 0 {
		t.Fatal("injector never delayed a message")
	}
}

// TestDroppedLinksDoNotWedgeHub: a black-hole network (DropProb 1) must leave
// the bid unresolved rather than panicking or deadlocking the hub, and a
// clean shutdown must still work.
func TestDroppedLinksDoNotWedgeHub(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Spec{DropProb: 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	hub.SetLinkFaults(inj)

	seller, err := Dial(hub.Addr(), 1, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	seller.SetNeighbors([]int32{2})
	buyer, err := Dial(hub.Addr(), 2, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	buyer.SetNeighbors([]int32{1})

	err = buyer.Bid([]auction.Request{{
		Chunk: video.ChunkID{Index: 1}, Value: 5,
		Candidates: []auction.Candidate{{Peer: 1, Cost: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := buyer.WaitQuiescent(50*time.Millisecond, 500*time.Millisecond); err == nil {
		t.Fatal("bid resolved across a network that drops everything")
	}
	if st := inj.Stats(); st.Drops == 0 {
		t.Fatal("injector never dropped a message")
	}
	if len(seller.Winners()) != 0 {
		t.Fatal("seller allocated despite never hearing a bid")
	}
	_ = buyer.Close()
	_ = seller.Close()
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close after drop drill: %v", err)
	}
}
