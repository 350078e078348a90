package sched

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/isp"
)

// Auction schedules slots with the paper's primal-dual auction, via the
// centralized solver in internal/core (Theorem 1 guarantees the distributed
// auctions converge to the same optimum; sim.DES checks that). Every round
// is a cold solve: the Auction keeps one core.Problem, which it rebuilds,
// and one core.Solver, which it reloads and so resets to λ = 0; only their
// arrays carry over. Use one per run, not for concurrent use.
//
// Every Result carries the solve's certified duality gap as Stats["gap"],
// and Stats["stopped"] is 1 when the deadline cut the bidding short.
type Auction struct {
	// Epsilon is the bid increment (0 = the paper's literal rule).
	Epsilon float64
	// Deadline, when set, stops each Schedule's bidding at that instant
	// (core.Solver.SetDeadline); the zero value never stops.
	Deadline time.Time

	problem core.Problem
	solver  *core.Solver
}

var _ Scheduler = (*Auction)(nil)

// noProblem is the empty problem an Auction's solver holds between rounds.
var noProblem = core.NewProblem()

// Name implements Scheduler.
func (a *Auction) Name() string { return "auction" }

// buildProblem translates a slot instance into the transportation problem of
// (1): one sink per uploader with capacity B(u), one request per wish, edge
// weights v_c(d) − w_{u→d}.
func buildProblem(in *Instance) (*core.Problem, error) {
	p := core.NewProblem()
	return p, fillProblem(p, in)
}

// fillProblem builds in's problem into the empty p. Shared by the auction
// and exact schedulers. Sinks are minted in uploader order, so SinkID i is
// in.Uploaders[i] and each edge's sink is its row; the problem is presized
// from the instance, so the build appends every edge in place.
func fillProblem(p *core.Problem, in *Instance) error {
	edges := 0
	for i := range in.Requests {
		edges += len(in.Requests[i].Candidates)
	}
	p.Grow(len(in.Requests), edges)
	for _, u := range in.Uploaders {
		if _, err := p.AddSink(u.Capacity); err != nil {
			return err
		}
	}
	for i := range in.Requests {
		req := &in.Requests[i]
		r := p.AddRequest()
		for k, ui := range in.Rows(i) {
			if err := p.AddEdge(r, core.SinkID(ui), req.Value-req.Candidates[k].Cost); err != nil {
				return err
			}
		}
	}
	return nil
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

// Schedule implements Scheduler by rebuilding the kept problem from the
// instance and solving it cold.
func (a *Auction) Schedule(in *Instance) (*Result, error) {
	a.problem.Reset()
	err := fillProblem(&a.problem, in)
	if err != nil {
		return nil, fmt.Errorf("auction schedule: %w", err)
	}
	if a.solver == nil {
		a.solver, err = core.NewSolver(core.AuctionOptions{Epsilon: a.Epsilon})
	} else {
		err = a.solver.SetEpsilon(a.Epsilon)
	}
	if err != nil {
		return nil, fmt.Errorf("auction schedule: %w", err)
	}
	a.solver.SetDeadline(a.Deadline)
	a.solver.Load(&a.problem)
	res, err := a.solver.SolveShared()
	if err != nil {
		a.solver.Load(noProblem)
		return nil, fmt.Errorf("auction schedule: %w", err)
	}
	out := &Result{
		Grants: grantsOf(in, res.Assignment),
		Prices: make(map[isp.PeerID]float64, len(in.Uploaders)),
		Stats: map[string]float64{
			"bids":       float64(res.Bids),
			"iterations": float64(res.Iterations),
			"evictions":  float64(res.Evictions),
			"gap":        res.Gap,
			"stopped":    0,
		},
	}
	if res.Stopped {
		out.Stats["stopped"] = 1
	}
	for i, u := range in.Uploaders {
		out.Prices[u.Peer] = res.Prices[i]
	}
	// Let go of the round's problem, keeping the solver's buffers: the
	// solver must not alias the edge slab while the next round rebuilds it.
	a.solver.Load(noProblem)
	return out, nil
}
