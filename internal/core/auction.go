package core

import "fmt"

// AuctionOptions configures the primal-dual auction.
//
// Every solve starts from λ = 0, exactly like the paper's per-slot
// auctions: naively reusing a price vector is unsound for this asymmetric
// problem — a carried positive price on a sink that ends the next solve
// unsaturated violates complementary slackness condition 1 and can exclude
// optimal assignments.
type AuctionOptions struct {
	// Epsilon is the bid increment. Epsilon = 0 reproduces the paper's
	// literal bidding rule (bid exactly the second-best difference), which
	// may stall on ties; any positive value guarantees termination with
	// welfare within NumRequests*Epsilon of optimal. With integer weights
	// and Epsilon < 1/(NumRequests+1) the result is exactly optimal.
	Epsilon float64
	// MaxIterations caps processed bids per solve as a safety net against
	// pathological parameters (0 selects the default
	// 1_000_000 + 100·NumRequests; negative values are rejected).
	MaxIterations int
}

// AuctionResult carries the solution and solver diagnostics.
type AuctionResult struct {
	Assignment *Assignment
	// Prices are the final unit-bandwidth prices λ_u (dual variables of the
	// capacity constraints (2)).
	Prices []float64
	// Iterations counts processed bids.
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
	// Stopped is true when the solve hit its deadline (Solver.SetDeadline)
	// before the bidding queue drained.
	Stopped bool
	// Gap is DualObjective(p, Prices) − Welfare: by weak duality the
	// assignment is within Gap of the optimal welfare, stopped or not, and
	// a finished solve's Gap is at most NumRequests·ε (Theorem 2).
	Gap float64
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

func (h bidHeap) down(i, n int) {
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

// SolveAuction runs the primal-dual auction on p from λ = 0 and returns the
// assignment, final prices and diagnostics: a fresh Solver, loaded with p
// and solved once. With opts.Epsilon > 0 it always terminates; with integer
// weights and Epsilon < 1/(NumRequests+1) the assignment is exactly optimal
// (Theorem 1 via Bertsekas' ε-CS argument).
func SolveAuction(p *Problem, opts AuctionOptions) (*AuctionResult, error) {
	s, err := NewSolver(opts)
	if err != nil {
		return nil, err
	}
	s.Load(p)
	return s.solveDetached()
}
