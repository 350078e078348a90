// Package isp models the Internet-Service-Provider substrate of the paper:
// a set of M ISPs and the pairwise network cost w(u→d) between peers, with
// intra-ISP costs drawn from a truncated normal TN(1,1,[0,2]) and inter-ISP
// costs from TN(5,1,[1,10]) (paper §V).
//
// Costs are sampled lazily and statelessly: the cost of a peer pair is a pure
// function of (topology seed, peer IDs, ISP IDs), so lookups are reproducible,
// order-independent and safe for concurrent readers without locking.
package isp

import (
	"fmt"

	"repro/internal/randx"
)

// ID identifies an ISP, in [0, NumISPs).
type ID int

// PeerID identifies a peer globally across all ISPs.
type PeerID int

// CostModel holds the truncated-normal parameters for link costs.
type CostModel struct {
	IntraMean, IntraStd, IntraMin, IntraMax float64
	InterMean, InterStd, InterMin, InterMax float64
}

// DefaultCostModel returns the paper's cost parameters:
// intra TN(1,1,[0,2]), inter TN(5,1,[1,10]).
func DefaultCostModel() CostModel {
	return CostModel{
		IntraMean: 1, IntraStd: 1, IntraMin: 0, IntraMax: 2,
		InterMean: 5, InterStd: 1, InterMin: 1, InterMax: 10,
	}
}

// Validate reports whether the model's bounds are coherent.
func (m CostModel) Validate() error {
	if m.IntraMin > m.IntraMax {
		return fmt.Errorf("isp: intra cost bounds inverted [%v,%v]", m.IntraMin, m.IntraMax)
	}
	if m.InterMin > m.InterMax {
		return fmt.Errorf("isp: inter cost bounds inverted [%v,%v]", m.InterMin, m.InterMax)
	}
	if m.IntraStd < 0 || m.InterStd < 0 {
		return fmt.Errorf("isp: negative std (intra=%v inter=%v)", m.IntraStd, m.InterStd)
	}
	return nil
}

// Topology is an immutable view of the ISP landscape: how many ISPs exist,
// which ISP each peer belongs to, and the network cost between any two peers.
type Topology struct {
	numISPs int
	model   CostModel
	seed    uint64

	mu     []ID // peer -> ISP, grown by AddPeer; read via Of
	sealed bool
}

// NewTopology creates a topology with numISPs ISPs. Peer-to-ISP membership is
// added with AddPeer (the simulator assigns peers round-robin per the paper's
// "distributed in the 5 ISPs evenly").
func NewTopology(numISPs int, model CostModel, seed uint64) (*Topology, error) {
	if numISPs <= 0 {
		return nil, fmt.Errorf("isp: need at least one ISP, got %d", numISPs)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Topology{numISPs: numISPs, model: model, seed: seed}, nil
}

// NumISPs returns the number of ISPs.
func (t *Topology) NumISPs() int { return t.numISPs }

// Model returns the cost model in use.
func (t *Topology) Model() CostModel { return t.model }

// AddPeer registers a peer in ISP m and returns its global PeerID.
// Registration is not safe for concurrent use (done by the single-threaded
// simulator control loop).
func (t *Topology) AddPeer(m ID) (PeerID, error) {
	if m < 0 || int(m) >= t.numISPs {
		return 0, fmt.Errorf("isp: ISP %d out of range [0,%d)", m, t.numISPs)
	}
	t.mu = append(t.mu, m)
	return PeerID(len(t.mu) - 1), nil
}

// NumPeers returns how many peers have been registered.
func (t *Topology) NumPeers() int { return len(t.mu) }

// Of returns the ISP of peer p.
func (t *Topology) Of(p PeerID) (ID, error) {
	if p < 0 || int(p) >= len(t.mu) {
		return 0, fmt.Errorf("isp: unknown peer %d", p)
	}
	return t.mu[p], nil
}

// SameISP reports whether two peers are in the same ISP.
func (t *Topology) SameISP(a, b PeerID) (bool, error) {
	ia, err := t.Of(a)
	if err != nil {
		return false, err
	}
	ib, err := t.Of(b)
	if err != nil {
		return false, err
	}
	return ia == ib, nil
}

// Cost returns the network cost w(u→d) of sending one chunk from peer u to
// peer d. Costs are symmetric (one latency value per unordered pair) and
// stable across calls. Cost(u,u) is 0.
func (t *Topology) Cost(u, d PeerID) (float64, error) {
	if u == d {
		return 0, nil
	}
	iu, err := t.Of(u)
	if err != nil {
		return 0, err
	}
	id, err := t.Of(d)
	if err != nil {
		return 0, err
	}
	lo, hi := u, d
	if lo > hi {
		lo, hi = hi, lo
	}
	// Stateless per-pair stream: same pair -> same cost, independent pairs
	// — and a pure function, so callers on hot paths are free to keep what
	// they drew (the simulator's world carries each watcher's neighbor costs
	// across refreshes; the draw burns a PRNG derivation plus
	// truncated-normal rejection sampling per call).
	pairKey := uint64(lo)<<32 | uint64(uint32(hi))
	rng := randx.New(t.seed).Derive(pairKey)
	m := t.model
	if iu == id {
		return rng.MustTruncNormal(m.IntraMean, m.IntraStd, m.IntraMin, m.IntraMax), nil
	}
	return rng.MustTruncNormal(m.InterMean, m.InterStd, m.InterMin, m.InterMax), nil
}

// MustCost is Cost for known-registered peers; it panics on lookup errors and
// exists for hot paths inside the simulator where peer IDs are invariantly
// valid.
func (t *Topology) MustCost(u, d PeerID) float64 {
	c, err := t.Cost(u, d)
	if err != nil {
		panic(err)
	}
	return c
}

// IsInter reports whether a transfer u→d crosses an ISP boundary.
func (t *Topology) IsInter(u, d PeerID) (bool, error) {
	same, err := t.SameISP(u, d)
	if err != nil {
		return false, err
	}
	return !same, nil
}
