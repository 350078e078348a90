// Package peer implements the per-node program of the paper's emulator (§V):
// a neighbor manager, buffer manager, bidding module, allocator module and
// transmission manager composed into a Node that runs the distributed auction
// protocol over the discrete-event network.
//
// The bidding and allocation logic live in internal/auction (shared with the
// live socket engine); Node adapts them to netsim: it dispatches incoming
// protocol messages, expands auctioneer broadcasts to the neighbor list, and
// timestamps price changes for the price-convergence experiment (Fig. 2).
package peer

import (
	"fmt"
	"time"

	"repro/internal/auction"
	"repro/internal/isp"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/video"
)

// PriceHook observes λ_u changes at this node's allocator, with the simulated
// time at which they happened.
type PriceHook func(at time.Duration, price float64)

// Node is one emulated peer process.
type Node struct {
	id    isp.PeerID
	sched *netsim.Scheduler
	net   *netsim.Network

	bidder *auction.Bidder
	alloc  *auction.Auctioneer

	neighbors []isp.PeerID
	onPrice   PriceHook
}

var _ netsim.Handler = (*Node)(nil)

// New creates a node and registers it on the network.
func New(id isp.PeerID, sched *netsim.Scheduler, net *netsim.Network, epsilon float64) (*Node, error) {
	if sched == nil || net == nil {
		return nil, fmt.Errorf("peer: nil scheduler or network")
	}
	bidder, err := auction.NewBidder(epsilon)
	if err != nil {
		return nil, fmt.Errorf("peer: %w", err)
	}
	alloc, err := auction.NewAuctioneer(0)
	if err != nil {
		return nil, fmt.Errorf("peer: %w", err)
	}
	n := &Node{id: id, sched: sched, net: net, bidder: bidder, alloc: alloc}
	net.Register(netsim.NodeID(id), n)
	return n, nil
}

// ID returns the node's peer id.
func (n *Node) ID() isp.PeerID { return n.id }

// SetNeighbors installs the current neighbor list (the neighbor manager's
// output; refreshed every bidding cycle from the tracker).
func (n *Node) SetNeighbors(ids []isp.PeerID) {
	n.neighbors = append(n.neighbors[:0], ids...)
}

// SetPriceHook installs an observer for this node's price changes.
func (n *Node) SetPriceHook(h PriceHook) { n.onPrice = h }

// Shutdown removes the node from the network (peer departure); in-flight
// messages to it will be dropped.
func (n *Node) Shutdown() { n.net.Unregister(netsim.NodeID(n.id)) }

// StartSlot opens a new bidding cycle: the allocator resets with the slot's
// upload capacity and the bidding module emits initial bids for the wanted
// chunks.
func (n *Node) StartSlot(requests []auction.Request, capacity int) error {
	if err := n.alloc.StartSlot(capacity); err != nil {
		return fmt.Errorf("peer: %w", err)
	}
	if n.onPrice != nil {
		// The slot-boundary reset to 0 is part of the λ_u trace.
		n.onPrice(n.sched.Now(), n.alloc.Price())
	}
	n.route(n.bidder.StartSlot(requests))
	return nil
}

// HandleMessage implements netsim.Handler: dispatch to the bidding module or
// the allocator and route whatever they emit.
func (n *Node) HandleMessage(from netsim.NodeID, msg any) {
	peerFrom := auction.PeerRef(from)
	switch m := msg.(type) {
	case protocol.Bid:
		n.route(n.alloc.OnBid(peerFrom, m))
	case protocol.BidResult:
		n.route(n.bidder.OnBidResult(peerFrom, m))
	case protocol.Evict:
		n.route(n.bidder.OnEvict(peerFrom, m))
	case protocol.PriceUpdate:
		n.route(n.bidder.OnPriceUpdate(peerFrom, m))
	default:
		// Unknown messages are dropped, as a real peer would drop frames it
		// cannot parse.
	}
}

// route sends state-machine output over the network, expanding Broadcast to
// the neighbor list and feeding the price hook.
func (n *Node) route(outs []auction.Outbound) {
	for _, o := range outs {
		if o.To == auction.Broadcast {
			if pu, ok := o.Msg.(protocol.PriceUpdate); ok && n.onPrice != nil {
				n.onPrice(n.sched.Now(), pu.Price)
			}
			for _, nb := range n.neighbors {
				n.net.Send(netsim.NodeID(n.id), netsim.NodeID(nb), o.Msg)
			}
			continue
		}
		n.net.Send(netsim.NodeID(n.id), netsim.NodeID(o.To), o.Msg)
	}
}

// Wins returns the bidding module's current winning chunks (chunk → upstream
// peer).
func (n *Node) Wins() map[video.ChunkID]isp.PeerID {
	wins := n.bidder.Wins()
	out := make(map[video.ChunkID]isp.PeerID, len(wins))
	for c, u := range wins {
		out[c] = isp.PeerID(u)
	}
	return out
}

// Winners returns the allocator's sold bandwidth units (the transmission
// manager's send list for the slot).
func (n *Node) Winners() []auction.Win { return n.alloc.Winners() }

// Price returns the allocator's current λ_u.
func (n *Node) Price() float64 { return n.alloc.Price() }

// Unresolved returns how many of this node's requests still have bids in
// flight.
func (n *Node) Unresolved() int { return n.bidder.Unresolved() }
