package core

import (
	"fmt"
	"math"
	"time"
)

// deadlineEvery is how many bidding iterations pass between two reads of
// the clock when a deadline is set.
const deadlineEvery = 1024

// now reads the clock for deadline checks; tests stub it to cut a solve at
// a chosen check.
var now = time.Now

// Solver is the auction kernel: the paper's Algorithm 1 run as one
// centralized Gauss–Seidel bidding loop. Load resets it cold on a built
// Problem (λ = 0, nothing assigned) and Solve drains the bidding queue;
// SolveAuction is a fresh Solver, loaded and solved once. Every Load starts
// a fresh auction, as the paper clears λ afresh in every bidding cycle; only
// the Solver's buffers carry over, so a per-round caller (sched.Auction)
// reloads one Solver instead of allocating a new one each round.
//
// A Solver is not safe for concurrent use. The zero value is not usable;
// call NewSolver.
type Solver struct {
	opts AuctionOptions
	// deadline stops the bidding once the clock reaches it (zero: never).
	deadline time.Time

	// The loaded problem's capacities and edge lists, adopted from the
	// Problem and read but never written.
	caps []int
	adj  [][]Edge
	// maxW is the loaded problem's weight ceiling (Problem.MaxWeight).
	maxW float64

	lambda     []float64 // price per sink
	accepted   []bidHeap // accepted bids per sink
	assignment []SinkID  // per request, Unassigned when unserved

	// queue is the FIFO bidding queue, consumed via qHead so the backing
	// array is reused instead of sliding away (slid down by enqueue when the
	// consumed half fills it). A request is queued only while unassigned,
	// and then exactly once.
	queue []RequestID
	qHead int

	// degree counts each sink's in-degree during Load; bookSlab backs the
	// bid books. Both are reused by the next Load.
	degree   []int32
	bookSlab []acceptedBid
	// resultBuf / assignBuf / priceBuf back SolveShared: per-round callers
	// reuse the same arrays instead of allocating problem-sized copies
	// every solve.
	resultBuf AuctionResult
	assignBuf Assignment
	priceBuf  []float64
}

// NewSolver returns an empty solver.
func NewSolver(opts AuctionOptions) (*Solver, error) {
	if err := checkEpsilon(opts.Epsilon); err != nil {
		return nil, err
	}
	if opts.MaxIterations < 0 {
		return nil, fmt.Errorf("core: negative iteration cap %d", opts.MaxIterations)
	}
	return &Solver{opts: opts}, nil
}

func checkEpsilon(eps float64) error {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("core: invalid epsilon %v", eps)
	}
	return nil
}

// Load replaces the solver's problem with p and resets it cold: every price
// λ = 0, nothing assigned, requests queued 0..n−1. That queue order makes a
// loaded Solve the standalone cold auction, bid for bid. The solver adopts
// p's capacities and edge slab instead of copying them and never writes to
// them, so loading costs a few reused arrays. Each sink's bid book is a
// capped window of one slab sized min(B(u), indeg(u)): a request bids only
// while unassigned, so it sits in at most one book, once, and a drain never
// outgrows a window.
func (s *Solver) Load(p *Problem) {
	n, m := p.NumRequests(), p.NumSinks()
	s.caps, s.adj = p.capacities[:m:m], p.adj[:n:n]
	s.maxW = p.MaxWeight()
	s.lambda = zeroed(&s.lambda, m)

	s.degree = zeroed(&s.degree, m)
	for _, edges := range s.adj {
		for _, e := range edges {
			s.degree[e.Sink]++
		}
	}
	books := 0
	for t, c := range s.caps {
		books += min(c, int(s.degree[t]))
	}
	s.bookSlab = resize(s.bookSlab, books)
	slab := s.bookSlab
	s.accepted = resize(s.accepted, m)
	for t, c := range s.caps {
		s.accepted[t] = cut(&slab, min(c, int(s.degree[t])))[:0]
	}

	s.assignment = resize(s.assignment, n)
	// Twice n: enqueue slides the queue down once its consumed half fills
	// the array, so a drain never grows it.
	s.queue, s.qHead = resize(s.queue, 2*n)[:n], 0
	for r := range n {
		s.assignment[r] = Unassigned
		s.queue[r] = RequestID(r)
	}
}

// resize returns buf with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed resizes *slab to n zeroed elements and returns it.
func zeroed[T any](slab *[]T, n int) []T {
	*slab = resize(*slab, n)
	clear(*slab)
	return *slab
}

// cut slices the next n elements off the front of *slab as a capped window,
// so an append to the window copies instead of overrunning its neighbour.
func cut[T any](slab *[]T, n int) []T {
	w := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return w
}

// SetEpsilon changes the bid increment of the Solves that follow.
func (s *Solver) SetEpsilon(eps float64) error {
	if err := checkEpsilon(eps); err != nil {
		return err
	}
	s.opts.Epsilon = eps
	return nil
}

// SetDeadline sets the instant at which the Solves that follow stop
// bidding: a stopped solve fills spare capacity, reports Stopped and still
// certifies its welfare through Gap. The zero time (the default) never
// stops.
func (s *Solver) SetDeadline(t time.Time) { s.deadline = t }

// enqueue appends r to the bidding queue. A full queue whose consumed
// prefix is at least half of it slides its live tail down instead of
// growing, so a queue with room for twice the requests never grows.
func (s *Solver) enqueue(r RequestID) {
	if len(s.queue) == cap(s.queue) && 2*s.qHead >= len(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.qHead:])]
		s.qHead = 0
	}
	s.queue = append(s.queue, r)
}

// computeBid is Alg. 1's bidder: best and second-best net utility with the
// 0 floor of staying unassigned; ok=false drops the request out (no
// non-negative option).
func (s *Solver) computeBid(r RequestID) (target SinkID, bid float64, ok bool) {
	best, second := math.Inf(-1), 0.0
	target = Unassigned
	for _, e := range s.adj[r] {
		if s.caps[e.Sink] == 0 {
			continue // unsellable
		}
		u := e.Weight - s.lambda[e.Sink]
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
	return target, s.lambda[target] + (best - second) + s.opts.Epsilon, true
}

// offer is Alg. 1's "Bandwidth Allocation at Peer u": it sells one unit of
// sink t to request r at the given bid if it beats the price λ_t (0 until
// the assignment set fills, then its smallest accepted bid), evicting the
// lowest accepted bid when full.
func (s *Solver) offer(t SinkID, r RequestID, bid float64) (accepted bool, evicted RequestID) {
	evicted = RequestID(-1)
	if bid <= s.lambda[t] {
		return false, evicted
	}
	h := &s.accepted[t]
	if h.Len() >= s.caps[t] {
		evicted = h.popMin().req
	}
	h.push(acceptedBid{req: r, bid: bid})
	if h.Len() >= s.caps[t] {
		s.lambda[t] = (*h)[0].bid
	}
	return true, evicted
}

// run drains the bidding queue. Rejections spanning the whole queue with no
// price movement in between are an ε = 0 stall: every bidder "waits" per
// the paper, and since prices move only on accepted bids, counting rejects
// since the last accept is sound. A drain certifies itself: prices only
// rise, and every bid is ε-CS when placed. A deadline is checked before the
// first bid and every deadlineEvery iterations after; reaching it stops the
// bidding and fills spare capacity.
func (s *Solver) run(res *AuctionResult) error {
	maxIterations := s.opts.MaxIterations
	if maxIterations == 0 {
		maxIterations = 1_000_000 + 100*len(s.adj)
	}
	consecutiveRejects := 0
	for s.qHead < len(s.queue) {
		if res.Iterations >= maxIterations {
			return fmt.Errorf("core: auction exceeded %d iterations (ε=%v)",
				maxIterations, s.opts.Epsilon)
		}
		if !s.deadline.IsZero() && res.Iterations%deadlineEvery == 0 && !now().Before(s.deadline) {
			res.Stopped = true
			s.fill()
			break
		}
		res.Iterations++
		r := s.queue[s.qHead]
		s.qHead++
		target, bid, ok := s.computeBid(r)
		if !ok {
			continue
		}
		res.Bids++
		accepted, evicted := s.offer(target, r, bid)
		if !accepted {
			s.enqueue(r)
			consecutiveRejects++
			if consecutiveRejects >= len(s.queue)-s.qHead {
				res.Stalled = true
				break
			}
			continue
		}
		consecutiveRejects = 0
		s.assignment[r] = target
		if evicted >= 0 {
			res.Evictions++
			s.assignment[evicted] = Unassigned
			s.enqueue(evicted)
		}
	}
	s.queue, s.qHead = s.queue[:0], 0
	return nil
}

// fill hands out spare capacity once bidding has stopped: in request order,
// each unassigned request takes its highest-weight edge with w > 0 to a sink
// that still has room. A sink with room has λ = 0, so the prices stay a
// valid dual and the welfare only rises.
func (s *Solver) fill() {
	for r, t := range s.assignment {
		if t != Unassigned {
			continue
		}
		best, bestW := Unassigned, 0.0
		for _, e := range s.adj[r] {
			if e.Weight > bestW && s.accepted[e.Sink].Len() < s.caps[e.Sink] {
				best, bestW = e.Sink, e.Weight
			}
		}
		if best != Unassigned {
			s.assignment[r] = best
			s.accepted[best].push(acceptedBid{req: RequestID(r), bid: s.lambda[best]})
		}
	}
}

// gap returns DualObjective(p, prices) − Welfare of the held assignment,
// summed in the same order as those two, in one pass over the edge lists.
func (s *Solver) gap(prices []float64) float64 {
	dual, welfare := 0.0, 0.0
	for t, c := range s.caps {
		dual += prices[t] * float64(c)
	}
	for r, edges := range s.adj {
		eta, at := 0.0, s.assignment[r]
		for _, e := range edges {
			if u := e.Weight - prices[e.Sink]; u > eta {
				eta = u
			}
			if e.Sink == at {
				welfare += e.Weight
			}
		}
		dual += eta
	}
	return dual - welfare
}

// Solve runs the auction on the loaded problem and returns the assignment,
// prices and diagnostics with the ε-complementary-slackness certificate
// (welfare within NumRequests·ε of optimal for ε > 0; Stalled semantics at
// ε = 0), or, when the deadline stopped it, the partial assignment whose
// welfare Gap certifies. A Solve consumes the Load's queue: solving again
// without a reload returns the same assignment with no further bids.
func (s *Solver) Solve() (*AuctionResult, error) {
	res := &AuctionResult{}
	if err := s.run(res); err != nil {
		return nil, err
	}
	res.Assignment = &Assignment{SinkOf: append([]SinkID(nil), s.assignment...)}
	res.Prices = s.certifiedPrices(make([]float64, len(s.caps)))
	res.Gap = s.gap(res.Prices)
	return res, nil
}

// solveDetached is Solve for a solver about to be dropped: the result takes
// over the solver's assignment and price arrays instead of copying them.
func (s *Solver) solveDetached() (*AuctionResult, error) {
	res := &AuctionResult{}
	if err := s.run(res); err != nil {
		return nil, err
	}
	res.Assignment = &Assignment{SinkOf: s.assignment}
	res.Prices = s.certifiedPrices(s.lambda)
	res.Gap = s.gap(res.Prices)
	return res, nil
}

// SolveShared is Solve with solver-owned result storage: the returned
// AuctionResult (and its Assignment and Prices) alias reused buffers that
// are valid only until the next Load or Solve of any flavor — the
// allocation-free variant for callers that consume the result before
// touching the solver again (sched.Auction's per-round loop).
func (s *Solver) SolveShared() (*AuctionResult, error) {
	res := &s.resultBuf
	*res = AuctionResult{}
	if err := s.run(res); err != nil {
		return nil, err
	}
	s.assignBuf.SinkOf = append(s.assignBuf.SinkOf[:0], s.assignment...)
	res.Assignment = &s.assignBuf
	s.priceBuf = resize(s.priceBuf, len(s.caps))
	res.Prices = s.certifiedPrices(s.priceBuf)
	res.Gap = s.gap(res.Prices)
	return res, nil
}

// certifiedPrices fills dst (len == len(s.caps); it may be s.lambda) with
// the complete dual certificate: each sink's λ, with zero-capacity sinks
// priced out at the weight ceiling. A zero-capacity sink contributes λ·0 to
// the dual objective, so λ can be raised for free to dominate every
// incident weight; emitting that choice makes (assignment, prices) a
// complete dual certificate, so DualObjective and VerifyEpsilonCS hold
// without special-casing unsellable sinks.
func (s *Solver) certifiedPrices(dst []float64) []float64 {
	for t, c := range s.caps {
		if c == 0 {
			dst[t] = s.maxW
		} else {
			dst[t] = s.lambda[t]
		}
	}
	return dst
}
