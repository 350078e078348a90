package live

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/protocol"
	"repro/internal/video"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := protocol.Bid{Chunk: video.ChunkID{Video: 1, Index: 2}, Amount: 3.5}
	if err := writeEnvelope(&buf, 7, 9, want); err != nil {
		t.Fatal(err)
	}
	from, to, msg, err := readEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != 7 || to != 9 {
		t.Fatalf("routing header %d→%d", from, to)
	}
	got, ok := msg.(protocol.Bid)
	if !ok || got != want {
		t.Fatalf("message mangled: %+v", msg)
	}
}

// yieldingConn hands the processor to another goroutine before every Write,
// as a busy scheduler may, so a frame split across two Writes interleaves
// even at GOMAXPROCS=1.
type yieldingConn struct{ net.Conn }

func (c yieldingConn) Write(b []byte) (int, error) {
	runtime.Gosched()
	return c.Conn.Write(b)
}

// TestConcurrentEnvelopeWritesStayWhole: goroutines sharing one conn (the
// hub's serve loops forwarding to one destination) must never interleave
// frames, so the reader decodes every envelope intact.
func TestConcurrentEnvelopeWritesStayWhole(t *testing.T) {
	const writers, per = 8, 200
	var wg sync.WaitGroup
	defer wg.Wait() // after the closes below unblock any stuck writer
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	for w := int32(0); w < writers; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := protocol.Bid{Chunk: video.ChunkID{Video: video.ID(w), Index: video.ChunkIndex(i)}, Amount: float64(i)}
				if err := writeEnvelope(yieldingConn{client}, w, 100+w, msg); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	next := make([]int, writers) // per-writer frames read so far, in order
	for n := 0; n < writers*per; n++ {
		from, to, msg, err := readEnvelope(server)
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		bid, ok := msg.(protocol.Bid)
		if !ok || from < 0 || from >= writers || to != 100+from ||
			bid.Chunk.Video != video.ID(from) || int(bid.Chunk.Index) != next[from] || bid.Amount != float64(next[from]) {
			t.Fatalf("frame %d mangled: %d→%d %+v", n, from, to, msg)
		}
		next[from]++
	}
}

func TestEnvelopeRejectsGarbage(t *testing.T) {
	// Undersized length prefix.
	if _, _, _, err := readEnvelope(bytes.NewReader([]byte{0, 0, 0, 2, 1, 2})); err == nil {
		t.Fatal("bad envelope accepted")
	}
}

func TestLiveAuctionOverTCP(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := hub.Close(); err != nil {
			t.Errorf("hub close: %v", err)
		}
	}()

	// One seller with a single bandwidth unit, two competing buyers.
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

	chunk := video.ChunkID{Video: 0, Index: 42}
	for i, b := range buyers {
		err := b.Bid([]auction.Request{{
			Chunk: chunk, Value: float64(4 + 2*i), // buyer 3 values it higher
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
	if len(winners) != 1 {
		t.Fatalf("seller sold %d units, want 1", len(winners))
	}
	if winners[0].Bidder != 3 {
		t.Fatalf("high-value buyer should win, got %d", winners[0].Bidder)
	}
	if wins := buyers[1].Wins(); wins[chunk] != 1 {
		t.Fatalf("winner's book wrong: %v", wins)
	}
	if wins := buyers[0].Wins(); len(wins) != 0 {
		t.Fatalf("loser should hold nothing: %v", wins)
	}
	if seller.Price() <= 0 {
		t.Fatalf("contested price = %v, want > 0", seller.Price())
	}
}

func TestLiveMultiChunkLoadBalance(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	sellers := make([]*Peer, 2)
	for i := range sellers {
		p, err := Dial(hub.Addr(), int32(1+i), 0.01, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.SetNeighbors([]int32{10})
		sellers[i] = p
	}
	buyer, err := Dial(hub.Addr(), 10, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer buyer.Close()
	buyer.SetNeighbors([]int32{1, 2})

	// Four chunks, two sellers with two units each: all four must land.
	var reqs []auction.Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, auction.Request{
			Chunk: video.ChunkID{Video: 0, Index: video.ChunkIndex(i)},
			Value: 5,
			Candidates: []auction.Candidate{
				{Peer: 1, Cost: 1}, {Peer: 2, Cost: 1.5},
			},
		})
	}
	if err := buyer.Bid(reqs); err != nil {
		t.Fatal(err)
	}
	if err := buyer.WaitQuiescent(100*time.Millisecond, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(buyer.Wins()); got != 4 {
		t.Fatalf("buyer won %d/4 chunks", got)
	}
	if len(sellers[0].Winners()) != 2 || len(sellers[1].Winners()) != 2 {
		t.Fatalf("load not balanced: %d + %d",
			len(sellers[0].Winners()), len(sellers[1].Winners()))
	}
}

func TestPeerDepartureIsHandled(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	seller, err := Dial(hub.Addr(), 1, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	seller.SetNeighbors(nil)
	if err := seller.Close(); err != nil {
		t.Fatal(err)
	}

	buyer, err := Dial(hub.Addr(), 2, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer buyer.Close()
	buyer.SetNeighbors([]int32{1})
	err = buyer.Bid([]auction.Request{{
		Chunk: video.ChunkID{}, Value: 5,
		Candidates: []auction.Candidate{{Peer: 1, Cost: 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The bid goes nowhere; the buyer must not win and must not hang.
	time.Sleep(200 * time.Millisecond)
	if len(buyer.Wins()) != 0 {
		t.Fatal("win against a departed peer")
	}
}

func TestHubDoubleCloseSafe(t *testing.T) {
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

// TestDialWaitsForJoinAck: Dial returns only once the hub has acknowledged
// the Join, and fails when the other end hangs up or answers with anything
// but the ack.
func TestDialWaitsForJoinAck(t *testing.T) {
	for name, answer := range map[string]func(net.Conn){
		"hang-up":  func(net.Conn) {},
		"wrong-id": func(c net.Conn) { _ = writeEnvelope(c, 0, 8, protocol.Join{Peer: 8}) },
		"not-join": func(c net.Conn) { _ = writeEnvelope(c, 0, 7, protocol.Leave{Peer: 7}) },
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			if _, _, _, err := readEnvelope(c); err == nil {
				answer(c)
			}
		}()
		if p, err := Dial(ln.Addr().String(), 7, 0.01, 0); err == nil {
			_ = p.Close()
			t.Errorf("%s: Dial succeeded without the hub's Join ack", name)
		}
		_ = ln.Close()
	}

	// Against a real hub, a peer is routable the moment Dial returns.
	hub, err := NewHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for id := int32(1); id <= 3; id++ {
		p, err := Dial(hub.Addr(), id, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		hub.mu.Lock()
		_, registered := hub.conns[id]
		hub.mu.Unlock()
		if !registered {
			t.Fatalf("peer %d: Dial returned before the hub registered it", id)
		}
	}
}
