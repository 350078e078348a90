package core

import (
	"fmt"
	"math"
)

// BidMode selects how bidding rounds are organized.
type BidMode int

const (
	// GaussSeidel processes one unassigned request at a time against the
	// freshest prices (the paper's interleaving auctions behave this way when
	// message latencies serialize bids).
	GaussSeidel BidMode = iota + 1
	// Jacobi lets every unassigned request bid against the same price
	// snapshot, then lets auctioneers resolve all bids at once (a synchronous
	// distributed round).
	Jacobi
)

// AuctionOptions configures the primal-dual auction solver.
//
// SolveAuction itself never carries prices between calls: naively reusing a
// price vector is unsound for this asymmetric problem — a carried positive
// price on a sink that ends the next solve unsaturated violates
// complementary slackness condition 1 and can exclude optimal assignments.
// Each SolveAuction therefore starts from λ = 0, exactly like the paper's
// per-slot auctions. Warm starts across solves (and ε-rescaling schedules)
// are provided soundly by the incremental Solver (solver.go), which repairs
// CS1 before terminating.
type AuctionOptions struct {
	// Epsilon is the bid increment. Epsilon = 0 reproduces the paper's
	// literal bidding rule (bid exactly the second-best difference), which
	// may stall on ties; any positive value guarantees termination with
	// welfare within NumRequests*Epsilon of optimal. With integer weights
	// and Epsilon < 1/(NumRequests+1) the result is exactly optimal.
	Epsilon float64
	// Mode selects Gauss–Seidel (default) or Jacobi rounds.
	Mode BidMode
	// Workers parallelizes the bid computation of each Jacobi round across
	// this many goroutines (results are bit-identical to sequential; bids
	// within a round are pure reads of the price snapshot). 0 or 1 runs
	// sequentially; Workers > 1 requires Jacobi mode.
	Workers int
	// MaxIterations caps processed bids (Gauss–Seidel) or rounds (Jacobi) as
	// a safety net against pathological parameters
	// (default 1_000_000 + 100·NumRequests).
	MaxIterations int
}

// normalized fills in defaults and validates.
func (o AuctionOptions) normalized(p *Problem) (AuctionOptions, error) {
	if o.Epsilon < 0 {
		return o, fmt.Errorf("core: negative epsilon %v", o.Epsilon)
	}
	if math.IsNaN(o.Epsilon) || math.IsInf(o.Epsilon, 0) {
		return o, fmt.Errorf("core: epsilon %v is not finite", o.Epsilon)
	}
	if o.Mode == 0 {
		o.Mode = GaussSeidel
	}
	if o.Mode != GaussSeidel && o.Mode != Jacobi {
		return o, fmt.Errorf("core: unknown bid mode %d", o.Mode)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("core: negative worker count %d", o.Workers)
	}
	if o.Workers > 1 && o.Mode != Jacobi {
		return o, fmt.Errorf("core: parallel bidding requires Jacobi mode")
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 1_000_000 + 100*p.NumRequests()
	}
	return o, nil
}

// AuctionResult carries the solution and solver diagnostics.
type AuctionResult struct {
	Assignment *Assignment
	// Prices are the final unit-bandwidth prices λ_u (dual variables of the
	// capacity constraints (2)).
	Prices []float64
	// Iterations counts processed bids (Gauss–Seidel) or bidding rounds
	// (Jacobi).
	Iterations int
	// Bids counts bids submitted to auctioneers.
	Bids int
	// Evictions counts accepted bids later displaced by higher ones.
	Evictions int
	// Stalled is true when ε = 0 bidding reached a state where every
	// remaining unassigned request's best bid ties the current price (the
	// situation the paper's bidders "wait" in). The assignment is feasible
	// but may be slightly suboptimal.
	Stalled bool
	// RepairRounds counts CS1-repair rounds of a warm Solver.Solve (0 for
	// cold solves: a cold drain leaves no unsold reserves to repair).
	RepairRounds int
	// Restarted is true when a warm Solver.Solve abandoned its carried state
	// and fell back to a cold solve (pathological warm start).
	Restarted bool
	// SweepPasses counts closing ε-CS sweep passes of a warm Solver.Solve
	// (0 for SolveAuction, ≥1 for any completed warm solve).
	SweepPasses int
	// Surrenders counts reserve-surrender escalations: sweep stalls where
	// the solver zeroed the still-dirty sinks' reserve prices before
	// resorting to a cold restart.
	Surrenders int
}

// DualObjective evaluates the dual objective (5): Σ λ_u·B(u) + Σ η, with
// η_r = max(0, max_s (w_rs − λ_s)) — the smallest feasible dual completion.
func DualObjective(p *Problem, prices []float64) float64 {
	total := 0.0
	for s, lambda := range prices {
		total += lambda * float64(p.Capacity(SinkID(s)))
	}
	for r := 0; r < p.NumRequests(); r++ {
		eta := 0.0
		for _, e := range p.Edges(RequestID(r)) {
			if u := e.Weight - prices[e.Sink]; u > eta {
				eta = u
			}
		}
		total += eta
	}
	return total
}

// VerifyEpsilonCS checks ε-complementary slackness of (assignment, prices):
//
//  1. λ_u > 0 ⇒ sink u is saturated;
//  2. each served request's net utility is within ε of its best option
//     (including the value-0 option of staying unassigned);
//  3. each unassigned request has no option better than ε.
//
// tol absorbs floating-point noise.
func VerifyEpsilonCS(p *Problem, a *Assignment, prices []float64, eps, tol float64) error {
	if len(prices) != p.NumSinks() {
		return fmt.Errorf("core: %d prices for %d sinks", len(prices), p.NumSinks())
	}
	if err := a.Verify(p); err != nil {
		return err
	}
	load := make([]int, p.NumSinks())
	for _, s := range a.SinkOf {
		if s != Unassigned {
			load[s]++
		}
	}
	for s, lambda := range prices {
		if lambda < -tol {
			return fmt.Errorf("core: negative price λ[%d]=%v", s, lambda)
		}
		if lambda > tol && load[s] < p.Capacity(SinkID(s)) {
			return fmt.Errorf("core: CS1 violated: λ[%d]=%v but load %d < capacity %d",
				s, lambda, load[s], p.Capacity(SinkID(s)))
		}
	}
	for r := 0; r < p.NumRequests(); r++ {
		best := 0.0 // the stay-unassigned option
		for _, e := range p.Edges(RequestID(r)) {
			if u := e.Weight - prices[e.Sink]; u > best {
				best = u
			}
		}
		s := a.SinkOf[r]
		if s == Unassigned {
			if best > eps+tol {
				return fmt.Errorf("core: CS3 violated: request %d unassigned but best utility %v > ε=%v",
					r, best, eps)
			}
			continue
		}
		w, _ := p.Weight(RequestID(r), s)
		if got := w - prices[s]; got < best-eps-tol {
			return fmt.Errorf("core: CS2 violated: request %d at sink %d nets %v, best is %v (ε=%v)",
				r, s, got, best, eps)
		}
	}
	return nil
}

// acceptedBid is one unit of a sink's bandwidth sold to a request.
type acceptedBid struct {
	req RequestID
	bid float64
}

// bidHeap is a min-heap on bid value (ties: higher RequestID closer to the
// top, so the most recent equal bid is evicted first — deterministic).
//
// The heap operations are hand-rolled rather than going through
// container/heap: Push/Pop sit on the auction's hottest path, and the
// standard interface boxes every acceptedBid through an `any` (one
// allocation per accepted bid). The sift implementations mirror
// container/heap's up/down exactly, so the array layout — and with it every
// downstream iteration order — is bit-identical to the boxed version.
type bidHeap []acceptedBid

func (h bidHeap) Len() int { return len(h) }
func (h bidHeap) less(i, j int) bool {
	if h[i].bid != h[j].bid {
		return h[i].bid < h[j].bid
	}
	return h[i].req > h[j].req
}

func (h bidHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h bidHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

// push inserts one accepted bid (heap.Push without the interface boxing).
func (h *bidHeap) push(ab acceptedBid) {
	*h = append(*h, ab)
	h.up(len(*h) - 1)
}

// popMin removes and returns the lowest accepted bid (heap.Pop unboxed).
func (h *bidHeap) popMin() acceptedBid {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	v := old[n]
	*h = old[:n]
	return v
}

// fix re-establishes the heap order after element i changed (heap.Fix).
func (h bidHeap) fix(i int) {
	if !h.down(i, len(h)) {
		h.up(i)
	}
}

func (h bidHeap) peekMin() acceptedBid { return h[0] }

// auctioneer is the per-sink state of Alg. 1's "Bandwidth Allocation at
// Peer u": an assignment set of at most B(u) accepted bids and the price λ_u
// (0 until the set fills, then the smallest accepted bid).
type auctioneer struct {
	capacity int
	accepted bidHeap
	price    float64
}

func (u *auctioneer) full() bool { return len(u.accepted) >= u.capacity }

// offer processes bid b from request r, returning whether it was accepted and
// which request was evicted to make room (evicted == -1 if none).
func (u *auctioneer) offer(r RequestID, b float64) (accepted bool, evicted RequestID) {
	evicted = RequestID(-1)
	if u.capacity == 0 || b <= u.price {
		return false, evicted
	}
	if u.full() {
		evicted = u.accepted.popMin().req
	}
	u.accepted.push(acceptedBid{req: r, bid: b})
	if u.full() {
		u.price = u.accepted.peekMin().bid
	}
	return true, evicted
}

// SolveAuction runs the primal-dual auction on p and returns the assignment,
// final prices and diagnostics. With opts.Epsilon > 0 it always terminates;
// with integer weights and Epsilon < 1/(NumRequests+1) the assignment is
// exactly optimal (Theorem 1 via Bertsekas' ε-CS argument).
func SolveAuction(p *Problem, opts AuctionOptions) (*AuctionResult, error) {
	opts, err := opts.normalized(p)
	if err != nil {
		return nil, err
	}
	nReq, nSink := p.NumRequests(), p.NumSinks()
	sinks := make([]auctioneer, nSink)
	indeg := make([]int, nSink)
	for r := 0; r < nReq; r++ {
		for _, e := range p.Edges(RequestID(r)) {
			indeg[e.Sink]++
		}
	}
	// Every sink's book is a capped window of one slab. A request bids only
	// while unassigned, so it sits in at most one book, once: a book never
	// holds more than min(B(u), indeg(u)) bids and never outgrows its window.
	books := 0
	for s := range sinks {
		sinks[s].capacity = p.Capacity(SinkID(s))
		books += min(sinks[s].capacity, indeg[s])
	}
	slab := make([]acceptedBid, books)
	for s := range sinks {
		n := min(sinks[s].capacity, indeg[s])
		sinks[s].accepted = slab[:0:n]
		slab = slab[n:]
	}
	assignment := NewAssignment(nReq)
	res := &AuctionResult{Assignment: assignment}

	// FIFO queue of unassigned requests, as a ring over queue[head:] and
	// its wrap; inQueue guards against double enqueueing, so at most nReq
	// requests are ever queued and the ring never grows.
	queue := make([]RequestID, nReq)
	inQueue := make([]bool, nReq)
	head, queued := 0, 0
	enqueue := func(r RequestID) {
		if !inQueue[r] {
			queue[(head+queued)%nReq] = r
			queued++
			inQueue[r] = true
		}
	}
	for r := 0; r < nReq; r++ {
		enqueue(RequestID(r))
	}

	// computeBid implements Alg. 1's bidder: find best and second-best net
	// utility, where the second-best floor is 0 — the value of staying
	// unassigned. Returns ok=false when the request should drop out (its
	// best option is negative, so η = 0 and CS3 holds unassigned).
	// Zero-capacity sinks can never sell a unit and are skipped entirely
	// (a peer with no upload bandwidth is not a usable neighbor).
	computeBid := func(r RequestID) (target SinkID, bid float64, ok bool) {
		best, second := math.Inf(-1), 0.0
		target = Unassigned
		for _, e := range p.Edges(r) {
			if sinks[e.Sink].capacity == 0 {
				continue
			}
			u := e.Weight - sinks[e.Sink].price
			switch {
			case u > best:
				if best > second {
					second = best
				}
				best, target = u, e.Sink
			case u > second:
				second = u
			}
		}
		if target == Unassigned || best < 0 {
			return Unassigned, 0, false
		}
		// b = λ + (best − second) + ε  (the paper's rule when ε = 0).
		return target, sinks[target].price + (best - second) + opts.Epsilon, true
	}

	switch opts.Mode {
	case GaussSeidel:
		// Rejections spanning the whole queue with no price movement in
		// between ⇒ ε=0 stall (every bidder "waits" per the paper). Prices
		// move only on accepted bids, so counting rejects since the last
		// accept is sound.
		consecutiveRejects := 0
		for queued > 0 {
			if res.Iterations >= opts.MaxIterations {
				return nil, fmt.Errorf("core: auction exceeded %d iterations (ε=%v)",
					opts.MaxIterations, opts.Epsilon)
			}
			res.Iterations++
			r := queue[head]
			head = (head + 1) % nReq
			queued--
			inQueue[r] = false

			target, bid, ok := computeBid(r)
			if !ok {
				continue // drops out: no non-negative option left
			}
			res.Bids++
			accepted, evicted := sinks[target].offer(r, bid)
			if !accepted {
				enqueue(r)
				consecutiveRejects++
				if consecutiveRejects >= queued {
					res.Stalled = true
					for i := range queued {
						inQueue[queue[(head+i)%nReq]] = false
					}
					queued = 0
				}
				continue
			}
			consecutiveRejects = 0
			assignment.SinkOf[r] = target
			if evicted >= 0 {
				res.Evictions++
				assignment.SinkOf[evicted] = Unassigned
				enqueue(evicted)
			}
		}
	case Jacobi:
		// Every round drains the whole queue, so the ring stays linear:
		// head is 0 and the round's bidders are queue[:queued].
		for queued > 0 {
			if res.Iterations >= opts.MaxIterations {
				return nil, fmt.Errorf("core: auction exceeded %d rounds (ε=%v)",
					opts.MaxIterations, opts.Epsilon)
			}
			res.Iterations++
			// All unassigned requests bid against the same price snapshot;
			// within a round bid computation is pure (prices move only when
			// offers are processed afterwards), so it parallelizes with
			// bit-identical results.
			round := computeRound(queue[:queued], computeBid, opts.Workers)
			for _, r := range queue[:queued] {
				inQueue[r] = false
			}
			queued = 0
			if len(round) == 0 {
				break
			}
			res.Bids += len(round)
			progress := false
			for _, pb := range round {
				accepted, evicted := sinks[pb.target].offer(pb.req, pb.bid)
				if !accepted {
					enqueue(pb.req)
					continue
				}
				progress = true
				assignment.SinkOf[pb.req] = pb.target
				if evicted >= 0 {
					res.Evictions++
					assignment.SinkOf[evicted] = Unassigned
					enqueue(evicted)
				}
			}
			if !progress {
				res.Stalled = true
				break
			}
		}
	}

	res.Prices = make([]float64, nSink)
	maxW := p.MaxWeight()
	for s := range sinks {
		if sinks[s].capacity == 0 {
			// A zero-capacity sink contributes λ·0 to the dual objective, so
			// λ can be raised for free to dominate every incident weight.
			// Emitting that choice makes (assignment, prices) a complete
			// dual certificate: DualObjective and VerifyEpsilonCS hold
			// without special-casing unsellable sinks.
			res.Prices[s] = maxW
			continue
		}
		res.Prices[s] = sinks[s].price
	}
	return res, nil
}
