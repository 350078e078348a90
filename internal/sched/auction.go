package sched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isp"
)

// Auction schedules slots with the paper's primal-dual auction, via the
// centralized solver in internal/core (Theorem 1 guarantees the distributed
// auctions converge to the same optimum; sim.DES checks that).
type Auction struct {
	// Epsilon is the bid increment (0 = the paper's literal rule).
	Epsilon float64
	// Mode selects Gauss–Seidel (default) or Jacobi bidding rounds.
	Mode core.BidMode
	// Workers parallelizes Jacobi bid computation (0 or 1 = sequential;
	// requires Jacobi mode, as in core.AuctionOptions).
	Workers int
}

var _ Scheduler = (*Auction)(nil)

// Name implements Scheduler.
func (a *Auction) Name() string { return "auction" }

// buildProblem translates a slot instance into the transportation problem of
// (1): one sink per uploader with capacity B(u), one request per wish, edge
// weights v_c(d) − w_{u→d}. Shared by the auction and exact schedulers. Sinks
// are minted in uploader order, so SinkID i is in.Uploaders[i] and each
// edge's sink is its row; the problem is presized from the instance, so the
// build appends every edge in place.
func buildProblem(in *Instance) (*core.Problem, error) {
	p := core.NewProblem()
	edges := 0
	for i := range in.Requests {
		edges += len(in.Requests[i].Candidates)
	}
	p.Grow(len(in.Requests), edges)
	for _, u := range in.Uploaders {
		if _, err := p.AddSink(u.Capacity); err != nil {
			return nil, err
		}
	}
	for i := range in.Requests {
		req := &in.Requests[i]
		r := p.AddRequest()
		for k, ui := range in.Rows(i) {
			if err := p.AddEdge(r, core.SinkID(ui), req.Value-req.Candidates[k].Cost); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// grantsOf turns a solved assignment back into grants, in request order.
func grantsOf(in *Instance, a *core.Assignment) []Grant {
	n := a.Assigned()
	if n == 0 {
		return nil
	}
	grants := make([]Grant, 0, n)
	for r, s := range a.SinkOf {
		if s != core.Unassigned {
			grants = append(grants, Grant{Request: r, Uploader: in.Uploaders[s].Peer})
		}
	}
	return grants
}

// Schedule implements Scheduler by translating the instance to a
// transportation problem and running the auction solver.
func (a *Auction) Schedule(in *Instance) (*Result, error) {
	p, err := buildProblem(in)
	if err != nil {
		return nil, fmt.Errorf("auction schedule: %w", err)
	}
	res, err := core.SolveAuction(p, core.AuctionOptions{Epsilon: a.Epsilon, Mode: a.Mode, Workers: a.Workers})
	if err != nil {
		return nil, fmt.Errorf("auction schedule: %w", err)
	}
	out := &Result{
		Grants: grantsOf(in, res.Assignment),
		Prices: make(map[isp.PeerID]float64, len(in.Uploaders)),
		Stats: map[string]float64{
			"bids":       float64(res.Bids),
			"iterations": float64(res.Iterations),
			"evictions":  float64(res.Evictions),
		},
	}
	for i, u := range in.Uploaders {
		out.Prices[u.Peer] = res.Prices[i]
	}
	return out, nil
}
