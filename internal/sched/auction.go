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

// View is one shard of a parent instance seen in the parent's coordinates,
// so that an auction solves it without copying it: the parent requests and
// uploader rows the shard holds, each ascending, and the partition's table
// from every parent uploader row to that row's index in its own shard's
// Uploaders. A candidate whose row is not one of the shard's uploaders is
// an error: a shard is a whole component, so none of its edges leaves it.
type View struct {
	Requests  []int
	Uploaders []int
	SinkOf    []int32
}

// request returns the parent index of the view's i-th request; a nil view
// is the whole instance.
func (v *View) request(i int) int {
	if v == nil {
		return i
	}
	return v.Requests[i]
}

// holds reports whether parent uploader row is one of the view's uploaders.
func (v *View) holds(row int32) bool {
	if uint(row) >= uint(len(v.SinkOf)) {
		return false
	}
	s := v.SinkOf[row]
	return s >= 0 && int(s) < len(v.Uploaders) && v.Uploaders[s] == int(row)
}

// ViewResult is a view's solve in brief: the solver's counters, its
// certified gap, whether the deadline stopped it, and the number and
// welfare of its grants, the welfare summed in request order as
// Instance.Welfare sums a shard's grants.
type ViewResult struct {
	Bids, Iterations, Evictions int
	Stopped                     bool
	Gap                         float64
	Grants                      int
	Welfare                     float64
}

// buildProblem translates a slot instance into the transportation problem of
// (1): one sink per uploader with capacity B(u), one request per wish, edge
// weights v_c(d) − w_{u→d}.
func buildProblem(in *Instance) (*core.Problem, error) {
	p := core.NewProblem()
	var stamp rowStamp
	return p, fillProblem(p, in, &stamp)
}

// fillProblem builds in's whole problem into the empty p: fillView's view
// over every row.
func fillProblem(p *core.Problem, in *Instance, stamp *rowStamp) error {
	return fillView(p, in, nil, stamp)
}

// fillView builds the problem of view v of in (nil: all of in) into the
// empty p in one pass, reading the parent's rows. Shared by the auction and
// exact schedulers. Sinks are minted in the view's uploader order, so
// SinkID i is the view's i-th uploader and each edge's sink is its row's
// index among them; the problem is presized from the instance, and each
// request's edges are written straight into its window of the slab
// (core.Problem.AddRequestEdges). The fill makes every check AddEdge would:
// each row names a sink, each weight is finite, and no request lists an
// uploader twice, which stamp finds in O(1) per edge. On error p is left
// part-built.
func fillView(p *core.Problem, in *Instance, v *View, stamp *rowStamp) error {
	requests, sinks := len(in.Requests), len(in.Uploaders)
	if v != nil {
		requests, sinks = len(v.Requests), len(v.Uploaders)
	}
	edges := 0
	for i := 0; i < requests; i++ {
		ri := v.request(i)
		edges += int(in.rowOff[ri+1] - in.rowOff[ri])
	}
	p.Grow(sinks, requests, edges)
	for s := 0; s < sinks; s++ {
		row := s
		if v != nil {
			row = v.Uploaders[s]
		}
		if _, err := p.AddSink(in.Uploaders[row].Capacity); err != nil {
			return err
		}
	}
	stamp.reset(sinks)
	for i := 0; i < requests; i++ {
		ri := v.request(i)
		req := &in.Requests[ri]
		rows := in.Rows(ri)
		window := p.AddRequestEdges(len(rows))
		mark := stamp.next()
		for k, row := range rows {
			if row < 0 || int(row) >= len(in.Uploaders) {
				return fmt.Errorf("sched: request %d names unknown uploader row %d", ri, row)
			}
			sink := row
			if v != nil {
				if !v.holds(row) {
					return fmt.Errorf("sched: request %d names uploader row %d outside its shard", ri, row)
				}
				sink = v.SinkOf[row]
			}
			w := req.Value - req.Candidates[k].Cost
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("sched: request %d: weight %v to uploader %d is not finite", ri, w, req.Candidates[k].Peer)
			}
			if stamp.seen[sink] == mark {
				return fmt.Errorf("sched: request %d lists uploader %d twice", ri, req.Candidates[k].Peer)
			}
			stamp.seen[sink] = mark
			window[k] = core.Edge{Sink: core.SinkID(sink), Weight: w}
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

// solve rebuilds the kept problem from view v of in (nil: all of in) and
// solves it cold. The solver keeps the problem loaded: the caller reads the
// result, then calls release.
func (a *Auction) solve(in *Instance, v *View) (*core.AuctionResult, error) {
	a.problem.Reset()
	err := fillView(&a.problem, in, v, &a.stamp)
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
		a.release()
		return nil, fmt.Errorf("auction schedule: %w", err)
	}
	return res, nil
}

// release lets go of the round's problem, keeping the solver's buffers: the
// solver must not alias the edge slab while the next round rebuilds it.
func (a *Auction) release() { a.solver.Load(noProblem) }

// Schedule implements Scheduler by rebuilding the kept problem from the
// instance and solving it cold.
func (a *Auction) Schedule(in *Instance) (*Result, error) {
	res, err := a.solve(in, nil)
	if err != nil {
		return nil, err
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
	a.release()
	return out, nil
}

// ScheduleView solves view v of in cold, as Schedule solves a whole
// instance, and writes its answer in the parent's coordinates: grant[ri]
// becomes the row of the uploader granted parent request ri, or -1, for
// every request of the view, and price[row] becomes λ for every uploader
// row of the view. The views of one partition write disjoint entries, so
// separate Auctions may solve them concurrently into the same arrays.
func (a *Auction) ScheduleView(in *Instance, v *View, grant []int32, price []float64) (ViewResult, error) {
	res, err := a.solve(in, v)
	if err != nil {
		return ViewResult{}, err
	}
	out := ViewResult{Bids: res.Bids, Iterations: res.Iterations, Evictions: res.Evictions,
		Stopped: res.Stopped, Gap: res.Gap}
	for r, s := range res.Assignment.SinkOf {
		ri := v.Requests[r]
		if s == core.Unassigned {
			grant[ri] = -1
			continue
		}
		grant[ri] = int32(v.Uploaders[s])
		out.Grants++
		for _, e := range a.problem.Edges(core.RequestID(r)) {
			if e.Sink == s {
				out.Welfare += e.Weight
				break
			}
		}
	}
	for s, row := range v.Uploaders {
		price[row] = res.Prices[s]
	}
	a.release()
	return out, nil
}
