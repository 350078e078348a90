package sched

import (
	"fmt"
	"math"
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
	stamp   rowStamp
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
	var stamp rowStamp
	return p, fillProblem(p, in, &stamp)
}

// fillProblem builds in's problem into the empty p in one pass. Shared by
// the auction and exact schedulers. Sinks are minted in uploader order, so
// SinkID i is in.Uploaders[i] and each edge's sink is its row; the problem
// is presized from the instance, and each request's edges are written
// straight into its window of the slab (core.Problem.AddRequestEdges). The
// fill makes every check AddEdge would: each row names a sink, each weight
// is finite, and no request lists an uploader twice, which stamp finds in
// O(1) per edge. On error p is left part-built.
func fillProblem(p *core.Problem, in *Instance, stamp *rowStamp) error {
	edges := 0
	for i := range in.Requests {
		edges += len(in.Requests[i].Candidates)
	}
	sinks := len(in.Uploaders)
	p.Grow(sinks, len(in.Requests), edges)
	for _, u := range in.Uploaders {
		if _, err := p.AddSink(u.Capacity); err != nil {
			return err
		}
	}
	stamp.reset(sinks)
	for i := range in.Requests {
		req := &in.Requests[i]
		rows := in.Rows(i)
		window := p.AddRequestEdges(len(rows))
		mark := stamp.next()
		for k, ui := range rows {
			if ui < 0 || int(ui) >= sinks {
				return fmt.Errorf("sched: request %d names unknown uploader row %d", i, ui)
			}
			w := req.Value - req.Candidates[k].Cost
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("sched: request %d: weight %v to uploader %d is not finite", i, w, req.Candidates[k].Peer)
			}
			if stamp.seen[ui] == mark {
				return fmt.Errorf("sched: request %d lists uploader %d twice", i, req.Candidates[k].Peer)
			}
			stamp.seen[ui] = mark
			window[k] = core.Edge{Sink: core.SinkID(ui), Weight: w}
		}
	}
	return nil
}

// rowStamp finds a request's repeated candidate rows: seen[row] holds the
// mark of the last request that listed row. Marks rise across requests and
// across fills, so a kept stamp is never cleared, only when its mark wraps;
// an Auction keeps one for every round it schedules.
type rowStamp struct {
	seen []uint32
	mark uint32
}

// reset readies the stamp for a fill over the given number of rows.
func (s *rowStamp) reset(rows int) {
	if len(s.seen) < rows {
		// Fresh zeros lie below every mark, which is never 0.
		s.seen = make([]uint32, max(rows, 2*len(s.seen)))
	}
}

// next returns the mark of the next request.
func (s *rowStamp) next() uint32 {
	s.mark++
	if s.mark == 0 {
		clear(s.seen)
		s.mark = 1
	}
	return s.mark
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
	err := fillProblem(&a.problem, in, &a.stamp)
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
