// Package live runs the distributed auction protocol over real network
// connections: every peer is a goroutine speaking length-prefixed binary
// protocol frames (internal/protocol) through a TCP hub, driving exactly the
// same bidder/auctioneer state machines as the simulators.
//
// It exists to demonstrate that the protocol logic is transport-independent
// and concurrency-safe — the paper's emulator ran one process per peer with
// real traffic; this engine is the equivalent at package scale. It is a
// demonstration substrate (examples/livenet and tests), not the measurement
// engine; the deterministic simulators in internal/sim produce the figures.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/auction"
	"repro/internal/fault"
	"repro/internal/protocol"
	"repro/internal/video"
)

// envelope frames carry [to int32][from int32][protocol frame] so the hub
// can route and the receiver knows the sender. The frame goes out in one
// Write: several hub goroutines forward to the same destination conn, and a
// net.Conn keeps concurrent Writes whole but not a header/payload pair.
func writeEnvelope(w io.Writer, from, to int32, msg protocol.Message) error {
	payload, err := protocol.Encode(msg)
	if err != nil {
		return err
	}
	frame := make([]byte, 12, 12+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)+8))
	binary.BigEndian.PutUint32(frame[4:8], uint32(to))
	binary.BigEndian.PutUint32(frame[8:12], uint32(from))
	_, err = w.Write(append(frame, payload...))
	return err
}

func readEnvelope(r io.Reader) (from, to int32, msg protocol.Message, err error) {
	var prefix [4]byte
	if _, err = io.ReadFull(r, prefix[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n < 8 || n > protocol.MaxFrameSize {
		return 0, 0, nil, fmt.Errorf("live: bad envelope size %d", n)
	}
	body := make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	to = int32(binary.BigEndian.Uint32(body[0:4]))
	from = int32(binary.BigEndian.Uint32(body[4:8]))
	msg, err = protocol.Decode(body[8:])
	return from, to, msg, err
}

// Hub is a message router: peers connect over TCP, announce themselves with
// a Join frame, and send envelopes the hub forwards to their destination.
// The hub answers each Join with a Join of its own once the peer is
// registered, so a peer whose Dial returned can be sent to at once.
type Hub struct {
	ln net.Listener

	mu    sync.Mutex
	conns map[int32]net.Conn
	// all tracks every accepted connection from the moment of accept —
	// including those still waiting for their Join frame, which conns does
	// not yet know about. Close closes everything in all, so a serve
	// goroutine blocked on a pre-Join read cannot outlive the hub.
	all     map[net.Conn]struct{}
	closing bool
	// faults, when set, makes the hub a lossy network: each forwarded
	// envelope draws a drop/delay fate from the injector's link stream.
	faults *fault.Injector

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewHub starts a hub listening on 127.0.0.1 (random port).
func NewHub() (*Hub, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: listen: %w", err)
	}
	h := &Hub{
		ln:     ln,
		conns:  make(map[int32]net.Conn),
		all:    make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's dial address.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// SetLinkFaults installs (or, with nil, removes) a fault injector whose link
// stream decides each forwarded envelope's fate — dropped, delayed, or clean.
// Join and Leave frames are never dropped; only peer-to-peer protocol
// traffic rides the lossy path, mirroring a network that loses data packets
// but keeps its control session alive.
func (h *Hub) SetLinkFaults(inj *fault.Injector) {
	h.mu.Lock()
	h.faults = inj
	h.mu.Unlock()
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closing {
			// Lost the race with Close: this conn would never be closed by
			// the shutdown sweep, so reject it here.
			h.mu.Unlock()
			_ = conn.Close()
			continue
		}
		h.all[conn] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.serve(conn)
	}
}

// serve handles one peer connection: first frame must be Join, acknowledged
// once the peer is routable; subsequent envelopes are routed.
func (h *Hub) serve(conn net.Conn) {
	defer h.wg.Done()
	defer func() {
		h.mu.Lock()
		delete(h.all, conn)
		h.mu.Unlock()
		_ = conn.Close()
	}()
	from, _, msg, err := readEnvelope(conn)
	if err != nil {
		return
	}
	join, ok := msg.(protocol.Join)
	if !ok || join.Peer != from {
		return
	}
	h.mu.Lock()
	if old, dup := h.conns[from]; dup {
		_ = old.Close()
	}
	h.conns[from] = conn
	// Ack under the lock: a forwarder can only look the conn up after the
	// unlock, so the ack is the first frame the peer reads. It is a few
	// bytes on a fresh connection, so the write fits the socket buffer.
	err = writeEnvelope(conn, 0, from, protocol.Join{Peer: from})
	h.mu.Unlock()

	defer func() {
		h.mu.Lock()
		if h.conns[from] == conn {
			delete(h.conns, from)
		}
		h.mu.Unlock()
	}()
	if err != nil {
		return
	}
	for {
		src, dst, m, err := readEnvelope(conn)
		if err != nil {
			return
		}
		if _, isLeave := m.(protocol.Leave); isLeave {
			return
		}
		h.mu.Lock()
		out, ok := h.conns[dst]
		inj := h.faults
		h.mu.Unlock()
		if !ok {
			continue // destination gone: drop, like the real network
		}
		if inj != nil {
			drop, delay := inj.LinkFate()
			if drop {
				continue // lost on the wire; the protocol must re-converge
			}
			// Sleeping here delays every later message from this source too —
			// an in-order slow link, not packet reordering.
			if delay > 0 {
				time.Sleep(delay)
			}
		}
		// Forward with the verified source id.
		if err := writeEnvelope(out, src, dst, m); err != nil {
			continue
		}
	}
}

// Close shuts the hub down: stop accepting, drop all connections, wait for
// the serving goroutines to exit.
func (h *Hub) Close() error {
	select {
	case <-h.closed:
		return nil
	default:
		close(h.closed)
	}
	h.mu.Lock()
	h.closing = true
	err := h.ln.Close()
	// Sweep every accepted connection, joined or not; serve goroutines
	// blocked on a read wake up with an error and exit.
	for c := range h.all {
		_ = c.Close()
	}
	h.mu.Unlock()
	h.wg.Wait()
	return err
}

// Peer is one live protocol participant: a connection to the hub, the shared
// auction state machines, and a reader goroutine.
type Peer struct {
	id        int32
	conn      net.Conn
	neighbors []int32

	mu       sync.Mutex // guards bidder, alloc, lastRecv and writes
	bidder   *auction.Bidder
	alloc    *auction.Auctioneer
	lastRecv time.Time

	done chan struct{}
}

// joinTimeout bounds how long Dial waits for the hub's Join ack.
const joinTimeout = 5 * time.Second

// Dial connects a peer to the hub, waits until the hub has registered it (so
// its first bid, and every reply to it, is routable), and starts its reader.
func Dial(addr string, id int32, epsilon float64, capacity int) (*Peer, error) {
	bidder, err := auction.NewBidder(epsilon)
	if err != nil {
		return nil, err
	}
	alloc, err := auction.NewAuctioneer(capacity)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: dial: %w", err)
	}
	p := &Peer{
		id:     id,
		conn:   conn,
		bidder: bidder,
		alloc:  alloc,
		done:   make(chan struct{}),
	}
	if err := join(conn, id); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go p.readLoop()
	return p, nil
}

// join announces id to the hub and waits up to joinTimeout for its ack.
func join(conn net.Conn, id int32) error {
	if err := writeEnvelope(conn, id, 0, protocol.Join{Peer: id}); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Now().Add(joinTimeout)); err != nil {
		return err
	}
	_, _, msg, err := readEnvelope(conn)
	if err != nil {
		return fmt.Errorf("live: peer %d join: %w", id, err)
	}
	if ack, ok := msg.(protocol.Join); !ok || ack.Peer != id {
		return fmt.Errorf("live: peer %d join: hub answered %T, want its Join ack", id, msg)
	}
	return conn.SetReadDeadline(time.Time{})
}

// SetNeighbors installs the broadcast fan-out list.
func (p *Peer) SetNeighbors(ids []int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.neighbors = append([]int32(nil), ids...)
}

// Bid starts bidding for the given requests.
func (p *Peer) Bid(requests []auction.Request) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.routeLocked(p.bidder.StartSlot(requests))
}

// readLoop dispatches incoming envelopes to the state machines.
func (p *Peer) readLoop() {
	defer close(p.done)
	for {
		from, _, msg, err := readEnvelope(p.conn)
		if err != nil {
			return // connection closed
		}
		p.mu.Lock()
		p.lastRecv = time.Now()
		ref := auction.PeerRef(from)
		var outs []auction.Outbound
		switch m := msg.(type) {
		case protocol.Bid:
			outs = p.alloc.OnBid(ref, m)
		case protocol.BidResult:
			outs = p.bidder.OnBidResult(ref, m)
		case protocol.Evict:
			outs = p.bidder.OnEvict(ref, m)
		case protocol.PriceUpdate:
			outs = p.bidder.OnPriceUpdate(ref, m)
		}
		err = p.routeLocked(outs)
		p.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// routeLocked sends state machine output; the caller holds p.mu.
func (p *Peer) routeLocked(outs []auction.Outbound) error {
	for _, o := range outs {
		if o.To == auction.Broadcast {
			for _, nb := range p.neighbors {
				if err := writeEnvelope(p.conn, p.id, nb, o.Msg); err != nil {
					return err
				}
			}
			continue
		}
		if err := writeEnvelope(p.conn, p.id, int32(o.To), o.Msg); err != nil {
			return err
		}
	}
	return nil
}

// WaitQuiescent blocks until the peer has seen no traffic for idle, or until
// timeout elapses. Without a global observer, per-peer idleness is the live
// engine's convergence signal.
func (p *Peer) WaitQuiescent(idle, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		last := p.lastRecv
		unresolved := p.bidder.Unresolved()
		p.mu.Unlock()
		select {
		case <-p.done:
			// The reader has exited (peer closed or connection lost): no
			// further traffic can arrive, so resolve now instead of burning
			// the idle window.
			if unresolved == 0 {
				return nil
			}
			return errors.New("live: peer closed with unresolved bids")
		default:
		}
		idleLongEnough := last.IsZero() || time.Since(last) >= idle
		if unresolved == 0 && idleLongEnough {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("live: quiescence timeout")
		}
		time.Sleep(idle / 4)
	}
}

// Wins returns the chunks this peer's bids currently hold.
func (p *Peer) Wins() map[video.ChunkID]int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	wins := p.bidder.Wins()
	out := make(map[video.ChunkID]int32, len(wins))
	for c, u := range wins {
		out[c] = int32(u)
	}
	return out
}

// Winners returns the bandwidth units this peer has sold.
func (p *Peer) Winners() []auction.Win {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alloc.Winners()
}

// Price returns the peer's current λ_u.
func (p *Peer) Price() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alloc.Price()
}

// Close departs: announce Leave, close the connection, wait for the reader.
func (p *Peer) Close() error {
	p.mu.Lock()
	_ = writeEnvelope(p.conn, p.id, 0, protocol.Leave{Peer: p.id})
	p.mu.Unlock()
	err := p.conn.Close()
	<-p.done
	return err
}
