package core

import (
	"fmt"
	"math"
	"slices"
)

// Solver is the auction kernel: the one Gauss–Seidel bidding loop behind
// both the cold and the warm solve. Load starts it cold on a built Problem
// (SolveAuction is a fresh Solver, loaded and solved once). Between Solves
// it retains the price vector λ and the partial assignment and accepts
// ProblemDeltas instead of freshly built Problems. Successive slots of a P2P
// schedule differ only marginally, so re-optimizing from the previous
// near-equilibrium prices converges in a fraction of the bids a cold solve
// needs (the re-optimization observation of Bertsekas & Castañón; see
// docs/PERFORMANCE.md for measured speedups).
//
// Warm starts are sound — every Solve terminates with the same
// ε-complementary-slackness certificate a cold solve emits — because of
// three mechanisms stacked on the plain forward auction:
//
//  1. Reserve prices. Carried prices act as reserves: a sink whose
//     assignment set was drained by departures keeps its λ and only sells
//     to bids above it, exactly the Bertsekas–Castañón warm start.
//  2. Reverse-auction vacancy repair. Sinks left with unsold units at a
//     positive price (ε-CS condition 1 violated — the unsoundness that
//     rules out naive price carry-over, see AuctionOptions) run reverse
//     bids in waves: each lowers λ to just under its first excluded offer
//     w − π over the requests that could use it and directly grabs the
//     best offerers (batchRepair). Chains of displacements walk augmenting
//     paths wave by wave; every grab strictly raises the grabbed request's
//     utility by more than ε, so repair cannot cycle.
//  3. The closing ε-CS sweep. After bidding and repair quiesce, one O(E)
//     sweep re-checks the full certificate and re-enqueues anything the
//     forward/reverse interleaving left more than ε from its best option;
//     a bounded number of sweep rounds falls back to a cold restart, so
//     correctness never depends on the event bookkeeping being airtight.
//
// ε-rescaling: SetEpsilon may tighten ε between Solves (an ε-scaling
// schedule across slots). The closing sweep revalidates all carried state
// against the ε in force, so the n·ε welfare bound holds regardless of the
// ε history that produced the carried prices. Stale reserves above the
// weight ceiling are clamped down for the same reason.
//
// A Solver is not safe for concurrent use. The zero value is not usable;
// call NewSolver.
type Solver struct {
	opts AuctionOptions

	// Problem state. Dead (removed) requests and sinks keep their slots —
	// ids are never reused, so stale Edge.Sink references can never alias a
	// later entity — until Compact reclaims them. A dead sink's capacity is
	// 0, which alone keeps bidders off it.
	caps      []int
	adj       [][]Edge
	sinkAlive []bool
	reqAlive  []bool
	numEdges  int
	// shared marks caps and adj as the loaded Problem's own slices, read
	// but never written: own copies them (and builds radj) before anything
	// mutates the problem or reads the reverse adjacency.
	shared bool
	// radj is the reverse adjacency (sink → requests with an edge to it),
	// maintained append-only with lazy filtering: entries for dead requests,
	// dropped edges and update-duplicates are skipped (and pruned) when a
	// vacancy event scans them, and the whole index is rebuilt when stale
	// entries dominate (radjSize tracks entries, rebuildRadj the rebuild).
	radj     [][]RequestID
	radjSize int

	// Carried solver state.
	lambda     []float64 // reserve/market price per sink
	accepted   []bidHeap // accepted bids per sink
	assignment []SinkID  // per request, Unassigned when unserved
	bidOf      []float64 // stored accepted bid per assigned request
	wOf        []float64 // weight of the assigned edge (valid when assigned)

	// queue is the FIFO bidding queue, consumed via qHead so the backing
	// array is reused instead of sliding away (reset to 0 when drained,
	// slid down by enqueue when the consumed half fills it).
	queue   []RequestID
	qHead   int
	inQueue []bool
	// work queues sinks with a pending vacancy event (an unsold unit at a
	// positive price — a CS1 violation to repair).
	work   []SinkID
	inWork []bool

	// dupStamp/dupRound implement the allocation-free duplicate-edge check
	// of validateEdges (a sink slot stamped twice in one round is a dup);
	// reqStamp/reqRound do the same per request for per-sink candidate dedup
	// in repair waves. waveBuf/waveStart/waveCap/waveFill/waveSinks are the
	// wave's reusable offer-arena scratch.
	dupStamp    []uint64
	dupRound    uint64
	reqStamp    []uint64
	reqRound    uint64
	waveBuf     []reverseOffer
	waveStart   []int32
	waveCap     []int32
	waveFill    []int32
	waveSinks   []SinkID
	workScratch []SinkID
	// edgePool recycles removed requests' edge arrays for later additions
	// (bounded; see maxEdgePool).
	edgePool [][]Edge
	// Sweep hints: prices move down only in grabOffers and the reserve
	// clamp, and a uniform value shift can sink an assigned request under
	// the 0-floor only when negative — those are the only two events that
	// can break ε-CS conditions 2/3 for a request nobody re-bid (see
	// sweepEpsilonCS). dropped/inDropped track price-dropped sinks,
	// recheck the flagged shifts; fullSweep forces the O(E) whole-graph
	// sweep (initial state, SetEpsilon, cold restarts, Compact).
	dropped   []SinkID
	inDropped []bool
	recheck   []RequestID
	fullSweep bool
	// surrendered marks that this Solve already gave up the thrashing
	// sinks' reserves (the first escalation stage; see Solve).
	surrendered bool
	// appliedBuf / resultBuf / assignBuf / priceBuf back the shared-buffer
	// variants (ApplyUnchecked, SolveShared): per-round callers reuse the
	// same arrays instead of re-materializing churn- and problem-sized
	// copies every solve.
	appliedBuf AppliedDelta
	resultBuf  AuctionResult
	assignBuf  Assignment
	priceBuf   []float64
	// maxW is the cached monotone ceiling on live edge weights (see
	// weightCeiling).
	maxW float64
	// warm marks carried state from a completed Solve: only then can an
	// exceeded iteration budget be the warm start's fault and worth a cold
	// restart.
	warm bool
	// floatSlab, flagSlab, stampSlab and bookSlab back Load's per-request
	// and per-sink arrays and bid books, so a reloaded solver reuses them.
	floatSlab []float64
	flagSlab  []bool
	stampSlab []uint64
	bookSlab  []acceptedBid

	aliveReqs, aliveSinks int
}

// maxEdgePool bounds how many dead edge arrays the solver hoards for
// reuse (beyond it, the garbage collector takes them).
const maxEdgePool = 8192

// NewSolver returns an empty solver.
func NewSolver(opts AuctionOptions) (*Solver, error) {
	if opts.Epsilon < 0 || math.IsNaN(opts.Epsilon) || math.IsInf(opts.Epsilon, 0) {
		return nil, fmt.Errorf("core: invalid epsilon %v", opts.Epsilon)
	}
	if opts.MaxIterations < 0 {
		return nil, fmt.Errorf("core: negative iteration cap %d", opts.MaxIterations)
	}
	return &Solver{opts: opts, fullSweep: true}, nil
}

// Load replaces the solver's problem with p and resets it cold: every price
// λ = 0, nothing assigned, requests queued 0..n−1. That queue order makes a
// loaded Solve the standalone cold auction, bid for bid. The solver adopts
// p's capacities and edge slab instead of copying them and never writes to
// them (Problem's own API never rewrites them either), so loading costs a
// few reused arrays. Each sink's bid book is a capped window of one slab
// sized min(B(u), indeg(u)): a request bids only while unassigned, so it
// sits in at most one book, once, and a cold drain never outgrows a window.
func (s *Solver) Load(p *Problem) {
	n, m := p.NumRequests(), p.NumSinks()
	s.caps, s.adj, s.shared = p.capacities[:m:m], p.adj[:n:n], true
	s.numEdges, s.aliveReqs, s.aliveSinks = p.numEdges, n, m
	s.maxW = p.MaxWeight()

	f := zeroed(&s.floatSlab, m+2*n)
	s.lambda, s.bidOf, s.wOf = cut(&f, m), cut(&f, n), cut(&f, n)
	b := zeroed(&s.flagSlab, 3*m+2*n)
	s.sinkAlive, s.inWork, s.inDropped = cut(&b, m), cut(&b, m), cut(&b, m)
	s.reqAlive, s.inQueue = cut(&b, n), cut(&b, n)
	u := zeroed(&s.stampSlab, m+n)
	s.dupStamp, s.reqStamp = cut(&u, m), cut(&u, n)

	// Count in-degrees in the (zeroed) sink stamps, carve the books, and
	// zero the stamps again.
	for _, edges := range s.adj {
		for _, e := range edges {
			s.dupStamp[e.Sink]++
		}
	}
	books := 0
	for t, c := range s.caps {
		books += min(c, int(s.dupStamp[t]))
	}
	s.bookSlab = resize(s.bookSlab, books)
	slab := s.bookSlab
	s.accepted = resize(s.accepted, m)
	for t, c := range s.caps {
		s.accepted[t] = cut(&slab, min(c, int(s.dupStamp[t])))[:0]
		s.sinkAlive[t] = true
	}
	clear(s.dupStamp)

	s.assignment = resize(s.assignment, n)
	// Twice n: enqueue slides the queue down once its consumed half fills
	// the array, so a cold drain never grows it.
	s.queue, s.qHead = resize(s.queue, 2*n)[:n], 0
	for r := range n {
		s.assignment[r] = Unassigned
		s.reqAlive[r], s.inQueue[r] = true, true
		s.queue[r] = RequestID(r)
	}
	s.work, s.dropped, s.recheck = s.work[:0], s.dropped[:0], s.recheck[:0]
	s.radjSize = 0
	s.warm, s.surrendered = false, false
	// A cold drain certifies itself — prices only rise and every bid is
	// ε-CS when placed — so the closing sweep needs only its CS1 scan.
	s.fullSweep = false
}

// own ends a Load's sharing: it copies the adopted capacities and edge
// lists into solver-owned storage, so deltas and compaction may rewrite
// them, and builds the reverse adjacency a cold drain does without.
func (s *Solver) own() {
	if !s.shared {
		return
	}
	s.shared = false
	s.caps = slices.Clone(s.caps)
	edges := make([]Edge, 0, s.numEdges)
	adj := make([][]Edge, len(s.adj))
	for r, es := range s.adj {
		edges = append(edges, es...)
		adj[r] = edges[len(edges)-len(es) : len(edges) : len(edges)]
	}
	s.adj = adj
	s.radj = resize(s.radj, len(s.caps))
	s.rebuildRadj()
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

// Epsilon returns the current bid increment.
func (s *Solver) Epsilon() float64 { return s.opts.Epsilon }

// SetEpsilon changes the bid increment between Solves (an ε-rescaling
// schedule: solve coarse, tighten, re-solve warm). The next Solve's closing
// ε-CS sweep revalidates all carried state against the new ε, so the n·ε
// optimality bound always holds at the ε in force — regardless of the ε
// history that produced the carried prices.
func (s *Solver) SetEpsilon(eps float64) error {
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("core: invalid epsilon %v", eps)
	}
	s.opts.Epsilon = eps
	// The n·ε bound must be re-established at the new ε over everything
	// carried, not just what moved since the last Solve.
	s.fullSweep = true
	return nil
}

// NumRequests returns the number of live requests.
func (s *Solver) NumRequests() int { return s.aliveReqs }

// NumSinks returns the number of live sinks.
func (s *Solver) NumSinks() int { return s.aliveSinks }

// Dead returns how many removed request and sink slots are retained (the
// garbage Compact would reclaim).
func (s *Solver) Dead() (requests, sinks int) {
	return len(s.adj) - s.aliveReqs, len(s.caps) - s.aliveSinks
}

// Apply validates and applies one delta, returning the ids minted for
// AddSinks and AddRequests. On error the solver is unchanged. Apply may be
// called any number of times between Solves; see ProblemDelta for the
// phase order and the two-phase idiom for edges to freshly minted sinks.
func (s *Solver) Apply(d ProblemDelta) (*AppliedDelta, error) {
	s.own()
	if err := s.validate(&d); err != nil {
		return nil, err
	}
	return s.applyOps(&d, &AppliedDelta{}), nil
}

// ApplyUnchecked applies a delta without the validation pass — for
// producers that derive deltas programmatically from state the solver
// already vouched for (sched.WarmAuction's diff paths), where re-checking
// every operation is pure overhead on the hot slot loop. A malformed delta
// corrupts the solver; when in doubt, use Apply. The returned AppliedDelta
// aliases a solver-owned buffer, valid until the next Apply of either
// flavor.
func (s *Solver) ApplyUnchecked(d ProblemDelta) *AppliedDelta {
	s.own()
	s.appliedBuf.Sinks = s.appliedBuf.Sinks[:0]
	s.appliedBuf.Requests = s.appliedBuf.Requests[:0]
	return s.applyOps(&d, &s.appliedBuf)
}

// applyOps applies a validated (or trusted) delta into out.
func (s *Solver) applyOps(d *ProblemDelta, out *AppliedDelta) *AppliedDelta {
	for _, r := range d.RemoveRequests {
		s.unassign(r)
		if s.inQueue[r] {
			s.inQueue[r] = false // lazily skipped when popped
		}
		s.numEdges -= len(s.adj[r])
		if cap(s.adj[r]) > 0 && len(s.edgePool) < maxEdgePool {
			// Recycle the dead request's edge storage: request ids are
			// never reused, but their arrays are — churn workloads add a
			// request for every one they remove.
			s.edgePool = append(s.edgePool, s.adj[r][:0])
		}
		s.adj[r] = nil
		s.reqAlive[r] = false
		s.aliveReqs--
	}
	for _, u := range d.UpdateRequests {
		// An update vacates and re-bids. (Keeping the assignment when the
		// new edges still look ε-CS was tried and measured slower: the
		// stored bid goes stale against the new weights, overprices the
		// sink's book when it next fills, and the spurious reserves cost
		// more repair than the saved re-bids.)
		s.unassign(u.Request)
		s.numEdges += len(u.Edges) - len(s.adj[u.Request])
		// The solver owns its copy; reuse the old backing array when it fits.
		s.adj[u.Request] = append(s.adj[u.Request][:0], u.Edges...)
		s.indexEdges(u.Request, u.Edges)
		s.enqueue(u.Request)
	}
	for _, v := range d.ShiftValues {
		for i := range s.adj[v.Request] {
			s.adj[v.Request][i].Weight += v.Delta
			s.noteWeight(s.adj[v.Request][i].Weight)
		}
		if s.assignment[v.Request] != Unassigned {
			s.wOf[v.Request] += v.Delta
			if v.Delta < 0 {
				// A lowered value can sink the request under the 0-floor
				// (CS2's stay-unassigned option); flag it for the sweep.
				s.recheck = append(s.recheck, v.Request)
			}
		} else if v.Delta > 0 {
			// A raised value can break CS3 for an unassigned request (its
			// best option may now clear ε). Re-bidding it eagerly costs the
			// same computeBid the closing sweep would spend discovering it,
			// and lets steady value-drift slots finish in one sweep pass.
			s.enqueue(v.Request)
		}
	}
	for _, t := range d.RemoveSinks {
		for _, ab := range s.accepted[t] {
			s.assignment[ab.req] = Unassigned
			s.bidOf[ab.req] = 0
			s.wOf[ab.req] = 0
			s.enqueue(ab.req)
		}
		s.accepted[t] = nil
		s.caps[t] = 0
		s.lambda[t] = 0
		s.sinkAlive[t] = false
		s.radjSize -= len(s.radj[t])
		s.radj[t] = nil
		s.aliveSinks--
	}
	for _, c := range d.SetCapacities {
		s.setCapacity(c.Sink, c.Capacity)
	}
	for _, capacity := range d.AddSinks {
		s.caps = append(s.caps, capacity)
		s.adjustSinkSlices(1)
		s.sinkAlive = append(s.sinkAlive, true)
		s.aliveSinks++
		out.Sinks = append(out.Sinks, SinkID(len(s.caps)-1))
	}
	for _, edges := range d.AddRequests {
		var dst []Edge
		if n := len(s.edgePool); n > 0 {
			dst, s.edgePool = s.edgePool[n-1], s.edgePool[:n-1]
		}
		s.adj = append(s.adj, append(dst, edges...)) // solver owns its copy
		s.numEdges += len(edges)
		s.reqAlive = append(s.reqAlive, true)
		s.assignment = append(s.assignment, Unassigned)
		s.bidOf = append(s.bidOf, 0)
		s.wOf = append(s.wOf, 0)
		s.inQueue = append(s.inQueue, false)
		s.reqStamp = append(s.reqStamp, 0)
		s.aliveReqs++
		r := RequestID(len(s.adj) - 1)
		s.indexEdges(r, edges)
		s.enqueue(r)
		out.Requests = append(out.Requests, r)
	}
	return out
}

// adjustSinkSlices grows the per-sink state by n slots.
func (s *Solver) adjustSinkSlices(n int) {
	for i := 0; i < n; i++ {
		s.lambda = append(s.lambda, 0)
		s.accepted = append(s.accepted, nil)
		s.radj = append(s.radj, nil)
		s.inWork = append(s.inWork, false)
		s.inDropped = append(s.inDropped, false)
		s.dupStamp = append(s.dupStamp, 0)
	}
}

// indexEdges adds r to the reverse adjacency of its edge targets and folds
// the new weights into the cached ceiling.
func (s *Solver) indexEdges(r RequestID, edges []Edge) {
	for _, e := range edges {
		s.radj[e.Sink] = append(s.radj[e.Sink], r)
		s.noteWeight(e.Weight)
	}
	s.radjSize += len(edges)
}

// rebuildRadj reconstructs the reverse adjacency from scratch, shedding the
// stale entries lazy maintenance leaves behind.
func (s *Solver) rebuildRadj() {
	for t := range s.radj {
		s.radj[t] = s.radj[t][:0]
	}
	for r, edges := range s.adj {
		if !s.reqAlive[r] {
			continue
		}
		for _, e := range edges {
			if s.sinkAlive[e.Sink] {
				s.radj[e.Sink] = append(s.radj[e.Sink], RequestID(r))
			}
		}
	}
	s.radjSize = 0
	for t := range s.radj {
		s.radjSize += len(s.radj[t])
	}
}

// setCapacity applies one validated capacity change. Shrinking below the
// current load evicts the lowest accepted bids back into the queue; if the
// set is still full afterwards the price rises to the new lowest accepted
// bid (a price rise is always ε-CS-safe — it only worsens the evictees'
// alternatives). A 0→positive transition re-opens the sink as an option
// for every adjacent request (the sim's per-round capacity metering does
// this constantly), which the sweep must re-check.
func (s *Solver) setCapacity(t SinkID, capacity int) {
	if s.caps[t] == 0 && capacity > 0 {
		s.noteDrop(t)
	}
	s.caps[t] = capacity
	h := &s.accepted[t]
	for h.Len() > capacity {
		lowest := h.popMin()
		s.assignment[lowest.req] = Unassigned
		s.bidOf[lowest.req] = 0
		s.wOf[lowest.req] = 0
		s.enqueue(lowest.req)
	}
	if capacity > 0 && h.Len() == capacity {
		s.lambda[t] = (*h)[0].bid
	}
	// Growth can expose unsold units at a positive price (CS1-dirty).
	s.pushWork(t)
}

// validate checks every operation of d against the current state without
// mutating it. Ids referenced by later phases (e.g. edges of added requests)
// are checked against the liveness their phase will observe, except that
// edges may not reference sinks minted in the same delta.
func (s *Solver) validate(d *ProblemDelta) error {
	var removedReq map[RequestID]bool
	if len(d.RemoveRequests) > 0 {
		removedReq = make(map[RequestID]bool, len(d.RemoveRequests))
	}
	for _, r := range d.RemoveRequests {
		if !s.requestAlive(r) || removedReq[r] {
			return fmt.Errorf("core: delta removes unknown or dead request %d", r)
		}
		removedReq[r] = true
	}
	var removedSink map[SinkID]bool
	if len(d.RemoveSinks) > 0 {
		removedSink = make(map[SinkID]bool, len(d.RemoveSinks))
	}
	for _, t := range d.RemoveSinks {
		if !s.SinkAlive(t) || removedSink[t] {
			return fmt.Errorf("core: delta removes unknown or dead sink %d", t)
		}
		removedSink[t] = true
	}
	for _, u := range d.UpdateRequests {
		if !s.requestAlive(u.Request) || removedReq[u.Request] {
			return fmt.Errorf("core: delta updates unknown or dead request %d", u.Request)
		}
		if err := s.validateEdges(u.Edges, nil); err != nil {
			return fmt.Errorf("core: update of request %d: %w", u.Request, err)
		}
	}
	for _, v := range d.ShiftValues {
		if !s.requestAlive(v.Request) || removedReq[v.Request] {
			return fmt.Errorf("core: delta shifts unknown or dead request %d", v.Request)
		}
		if math.IsNaN(v.Delta) || math.IsInf(v.Delta, 0) {
			return fmt.Errorf("core: delta shifts request %d by non-finite %v", v.Request, v.Delta)
		}
	}
	for _, c := range d.SetCapacities {
		if !s.SinkAlive(c.Sink) || removedSink[c.Sink] {
			return fmt.Errorf("core: delta sets capacity of unknown or dead sink %d", c.Sink)
		}
		if c.Capacity < 0 {
			return fmt.Errorf("core: delta sets negative capacity %d on sink %d", c.Capacity, c.Sink)
		}
	}
	for _, capacity := range d.AddSinks {
		if capacity < 0 {
			return fmt.Errorf("core: delta adds sink with negative capacity %d", capacity)
		}
	}
	for i, edges := range d.AddRequests {
		if err := s.validateEdges(edges, removedSink); err != nil {
			return fmt.Errorf("core: added request #%d: %w", i, err)
		}
	}
	return nil
}

// validateEdges checks an edge list: live target sinks (optionally excluding
// sinks the same delta removes), finite weights, no duplicates. Duplicate
// detection stamps a per-sink scratch array (dupStamp/dupRound) — O(degree)
// with no allocation on the hot Apply path.
func (s *Solver) validateEdges(edges []Edge, removed map[SinkID]bool) error {
	s.dupRound++
	for _, e := range edges {
		if !s.SinkAlive(e.Sink) || removed[e.Sink] {
			return fmt.Errorf("edge to unknown or dead sink %d", e.Sink)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("edge to sink %d has non-finite weight %v", e.Sink, e.Weight)
		}
		if s.dupStamp[e.Sink] == s.dupRound {
			return fmt.Errorf("duplicate edge to sink %d", e.Sink)
		}
		s.dupStamp[e.Sink] = s.dupRound
	}
	return nil
}

// requestAlive reports whether r is a live request id.
func (s *Solver) requestAlive(r RequestID) bool {
	return int(r) >= 0 && int(r) < len(s.adj) && s.reqAlive[r]
}

// SinkAlive reports whether t is a live sink id.
func (s *Solver) SinkAlive(t SinkID) bool {
	return int(t) >= 0 && int(t) < len(s.caps) && s.sinkAlive[t]
}

// SinkOf returns the sink currently serving request r (Unassigned when
// unserved). Valid after a Solve; deltas may unassign requests again.
func (s *Solver) SinkOf(r RequestID) SinkID {
	if !s.requestAlive(r) {
		return Unassigned
	}
	return s.assignment[r]
}

// Price returns sink t's current price λ (0 for dead sinks).
func (s *Solver) Price(t SinkID) float64 {
	if !s.SinkAlive(t) {
		return 0
	}
	return s.lambda[t]
}

// Welfare returns the total welfare Σ w of the current assignment.
func (s *Solver) Welfare() float64 {
	total := 0.0
	for r, t := range s.assignment {
		if t == Unassigned || !s.reqAlive[r] {
			continue
		}
		for _, e := range s.adj[r] {
			if e.Sink == t {
				total += e.Weight
				break
			}
		}
	}
	return total
}

// enqueue pushes r onto the bidding queue once. A full queue whose
// consumed prefix is at least half of it slides its live tail down instead
// of growing, so a queue with room for twice the requests never grows.
func (s *Solver) enqueue(r RequestID) {
	if s.inQueue[r] {
		return
	}
	if len(s.queue) == cap(s.queue) && 2*s.qHead >= len(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.qHead:])]
		s.qHead = 0
	}
	s.queue = append(s.queue, r)
	s.inQueue[r] = true
}

// unassign withdraws r's accepted bid from its sink, leaving the sink's
// price untouched: the price keeps acting as a reserve (warm-start
// semantics; the repair loop in Solve restores CS1 if the slot never
// resells).
func (s *Solver) unassign(r RequestID) {
	t := s.assignment[r]
	if t == Unassigned {
		return
	}
	h := &s.accepted[t]
	for i := range *h {
		if (*h)[i].req == r {
			last := h.Len() - 1
			(*h)[i] = (*h)[last]
			*h = (*h)[:last]
			if i < last {
				h.fix(i) // O(log n), vs a full O(n) re-Init
			}
			break
		}
	}
	s.assignment[r] = Unassigned
	s.bidOf[r] = 0
	s.wOf[r] = 0
	// The freed unit may leave t CS1-dirty (λ > 0, unsold); queue its
	// vacancy event so no repair depends on a later whole-graph scan.
	s.pushWork(t)
}

// pushWork queues a vacancy event for sink t once.
func (s *Solver) pushWork(t SinkID) {
	if !s.inWork[t] {
		s.work = append(s.work, t)
		s.inWork[t] = true
	}
}

// noteDrop records that sink t became more attractive as an option: its
// price fell (grabOffers, the reserve clamp), or it re-entered the option
// set entirely (a capacity 0→positive transition — zero-capacity sinks are
// excluded from bidding and certificates). These are the only events that
// can make a previously certified request prefer to move; the next sweep
// re-checks the sink's adjacent requests.
func (s *Solver) noteDrop(t SinkID) {
	if !s.inDropped[t] {
		s.dropped = append(s.dropped, t)
		s.inDropped[t] = true
	}
}

// clearSweepHints resets the incremental-sweep bookkeeping after a sweep
// certified the full state clean.
func (s *Solver) clearSweepHints() {
	for _, t := range s.dropped {
		s.inDropped[t] = false
	}
	s.dropped = s.dropped[:0]
	s.recheck = s.recheck[:0]
	s.fullSweep = false
}

// noteWeight folds one live edge weight into the cached weight ceiling.
func (s *Solver) noteWeight(w float64) {
	if w > s.maxW {
		s.maxW = w
	}
}

// weightCeiling returns the cached upper bound on live edge weights. It is
// monotone (removals do not lower it), which is sound everywhere it is
// used: clamping stale reserves tighter than the ceiling is optional, and a
// zero-capacity sink's certificate price only needs to dominate its edges.
func (s *Solver) weightCeiling() float64 { return s.maxW }

// computeBid is Alg. 1's bidder against the solver's live state: best and
// second-best net utility with the 0 floor of staying unassigned; ok=false
// drops the request out (no non-negative option). weight is the target
// edge's weight, recorded with the assignment for O(1) utility lookups.
func (s *Solver) computeBid(r RequestID) (target SinkID, bid, weight float64, ok bool) {
	best, second := math.Inf(-1), 0.0
	target = Unassigned
	for _, e := range s.adj[r] {
		if s.caps[e.Sink] == 0 {
			continue // unsellable, or dead
		}
		u := e.Weight - s.lambda[e.Sink]
		switch {
		case u > best:
			if best > second {
				second = best
			}
			best, target = u, e.Sink
			weight = e.Weight
		case u > second:
			second = u
		}
	}
	if target == Unassigned || best < 0 {
		return Unassigned, 0, 0, false
	}
	return target, s.lambda[target] + (best - second) + s.opts.Epsilon, weight, true
}

// offer is Alg. 1's "Bandwidth Allocation at Peer u": it sells one unit of
// sink t to request r at the given bid if it beats the price λ_t (0 until
// the assignment set fills, then its smallest accepted bid — a reserve when
// carried), evicting the lowest accepted bid when full.
func (s *Solver) offer(t SinkID, r RequestID, bid float64) (accepted bool, evicted RequestID) {
	evicted = RequestID(-1)
	if s.caps[t] == 0 || bid <= s.lambda[t] {
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

// runOrRestart runs the auction; on an exceeded iteration budget of a warm
// solve (a pathological warm start can thrash where a cold solve would not)
// it restarts once from scratch with a fresh budget before giving up.
func (s *Solver) runOrRestart(res *AuctionResult, maxIterations int) error {
	err := s.runAuction(res, res.Iterations+maxIterations)
	if err == nil || res.Restarted || !s.warm {
		return err
	}
	res.Restarted = true
	s.coldReset()
	return s.runAuction(res, res.Iterations+maxIterations)
}

// dirty reports a CS1 violation at sink t: a positive price on unsold
// capacity.
func (s *Solver) dirty(t SinkID) bool {
	return s.sinkAlive[t] && s.caps[t] > 0 && s.lambda[t] > 0 &&
		s.accepted[t].Len() < s.caps[t]
}

// runAuction interleaves Gauss–Seidel bidding with vacancy repair until both
// the bid queue and the vacancy worklist are empty. Bidders always go first:
// a vacancy that sells before its event fires needs no repair. Rejections
// spanning the whole queue with no price movement in between are an ε = 0
// stall (every bidder "waits" per the paper; prices move only on accepted
// bids, so counting rejects since the last accept is sound). A stall
// abandons pending repairs — the paper's literal mode waits rather than
// re-prices.
func (s *Solver) runAuction(res *AuctionResult, maxIterations int) error {
	consecutiveRejects := 0
	for {
		if s.qHead >= len(s.queue) {
			s.queue = s.queue[:0]
			s.qHead = 0
			if len(s.work) == 0 {
				return nil
			}
			// Snapshot and clear the worklist first: the wave pushes the
			// chains' next hops back onto it.
			s.workScratch = append(s.workScratch[:0], s.work...)
			for _, t := range s.workScratch {
				s.inWork[t] = false
			}
			s.work = s.work[:0]
			s.batchRepair(s.workScratch, res)
			continue
		}
		if res.Iterations >= maxIterations {
			return fmt.Errorf("core: auction exceeded %d iterations (ε=%v)",
				maxIterations, s.opts.Epsilon)
		}
		res.Iterations++
		r := s.queue[s.qHead]
		s.qHead++
		if !s.inQueue[r] { // removed while queued
			continue
		}
		s.inQueue[r] = false
		target, bid, weight, ok := s.computeBid(r)
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
				for _, q := range s.queue[s.qHead:] {
					s.inQueue[q] = false
				}
				s.queue = s.queue[:0]
				s.qHead = 0
				for _, t := range s.work {
					s.inWork[t] = false
				}
				s.work = s.work[:0]
			}
			continue
		}
		consecutiveRejects = 0
		s.assignment[r] = target
		s.bidOf[r] = bid
		s.wOf[r] = weight
		if evicted >= 0 {
			res.Evictions++
			s.assignment[evicted] = Unassigned
			s.bidOf[evicted] = 0
			s.wOf[evicted] = 0
			s.enqueue(evicted)
		}
	}
}

// batchRepair runs one reverse-auction wave (Bertsekas & Castañón) over
// every currently dirty sink — a sink holding unsold units at a positive
// price, ε-CS condition 1 violated. Each dirty sink collects offers
// β = w − π from the requests that could use it (π being the request's
// profit, its best net utility anywhere, floored at the 0 drop-out option),
// keeps the top unsold+1 of them, lowers its price to just under the first
// excluded offer and directly grabs the rest — the reverse mirror of the
// forward bid rule, for a whole unit batch at once. Direct assignment is
// what makes repair converge: a grabbed request pays the first excluded
// offer's level and keeps its β surplus, so its utility strictly rises by
// more than ε; utilities only ratchet up and are bounded by the weights, so
// grab cycles are impossible (forward re-bidding of invited requests would
// surrender that surplus again and loop). Displacing an assigned request
// frees a unit at its old sink, which queues the next wave: vacancy chains
// are augmenting paths, walked wave by wave, and a π memo (piVal/piStamp)
// shares profit computations across the sinks of a wave. A sink with no
// offer above ε prices its unsold units at 0 — provably clean, since then
// no request prefers it by more than ε even for free. Every wave leaves
// each dirty sink saturated or priced at 0, and prunes its stale
// reverse-adjacency entries in place.
func (s *Solver) batchRepair(cands []SinkID, res *AuctionResult) {
	s.own()
	s.waveSinks = s.waveSinks[:0]
	total := 0
	for _, t := range cands {
		if s.dirty(t) {
			s.waveSinks = append(s.waveSinks, t)
			total += s.caps[t] - s.accepted[t].Len() + 1
		}
	}
	if len(s.waveSinks) == 0 {
		return
	}
	res.RepairRounds++
	if cap(s.waveBuf) < total {
		s.waveBuf = make([]reverseOffer, total)
	}
	buf := s.waveBuf[:total]
	if len(s.waveStart) < len(s.caps) {
		s.waveStart = make([]int32, len(s.caps))
		s.waveCap = make([]int32, len(s.caps))
		s.waveFill = make([]int32, len(s.caps))
	}
	start, capOf, fill := s.waveStart, s.waveCap, s.waveFill
	off := int32(0)
	for _, t := range s.waveSinks {
		k := int32(s.caps[t] - s.accepted[t].Len() + 1)
		start[t], capOf[t], fill[t] = off, k, 0
		off += k
	}

	for _, t := range s.waveSinks {
		s.reqRound++ // per-sink candidate dedup marker
		kept := s.radj[t][:0]
		for _, r := range s.radj[t] {
			if !s.reqAlive[r] || s.reqStamp[r] == s.reqRound {
				continue
			}
			weight, ok := 0.0, false
			for _, e := range s.adj[r] {
				if e.Sink == t {
					weight, ok = e.Weight, true
					break
				}
			}
			if !ok {
				continue
			}
			s.reqStamp[r] = s.reqRound
			kept = append(kept, r)
			// Queued requests bid for themselves; assigned-here requests are
			// not poachable.
			if s.inQueue[r] || s.assignment[r] == t {
				continue
			}
			o := reverseOffer{req: r, weight: weight, beta: weight - s.storedProfit(r)}
			lo, n, k := int(start[t]), int(fill[t]), int(capOf[t])
			seg := buf[lo : lo+n]
			// Sorted insertion, dropping off the tail at capacity.
			i := n
			for i > 0 && (seg[i-1].beta < o.beta ||
				(seg[i-1].beta == o.beta && seg[i-1].req > o.req)) {
				i--
			}
			if i >= k {
				continue
			}
			if n < k {
				n++
				fill[t] = int32(n)
				seg = buf[lo : lo+n]
			}
			copy(seg[i+1:], seg[i:n-1])
			seg[i] = o
		}
		s.radjSize -= len(s.radj[t]) - len(kept)
		s.radj[t] = kept
	}

	for _, t := range s.waveSinks {
		if !s.dirty(t) {
			continue // saturated by an earlier sink's displacements mid-wave
		}
		unsold := s.caps[t] - s.accepted[t].Len()
		s.grabOffers(t, unsold, buf[start[t]:start[t]+fill[t]])
	}
}

// grabOffers prices sink t at the first excluded offer's level and directly
// assigns the best ones — the shared tail of batchRepair and vacancyRepair.
// cand must be sorted descending by β.
func (s *Solver) grabOffers(t SinkID, unsold int, cand []reverseOffer) {
	take := 0
	for take < unsold && take < len(cand) {
		beta := cand[take].beta
		if beta <= s.opts.Epsilon || beta <= 0 {
			break
		}
		take++
	}
	price := 0.0
	if take < len(cand) {
		price = math.Max(0, cand[take].beta-s.opts.Epsilon)
	}
	if price < s.lambda[t] {
		s.lambda[t] = price
		s.noteDrop(t)
	}
	for i := 0; i < take; i++ {
		r := cand[i].req
		if old := s.assignment[r]; old != Unassigned {
			s.unassign(r)
			s.pushWork(old) // the chain's next hop
		}
		s.assignment[r] = t
		s.bidOf[r] = s.lambda[t]
		s.wOf[r] = cand[i].weight
		s.accepted[t].push(acceptedBid{req: r, bid: s.lambda[t]})
		// A grab guarantees strict improvement, not CS2 — the grabbed
		// request's best option elsewhere may still beat this sink by more
		// than ε; flag it for the closing sweep (the whole-graph sweep
		// used to catch this implicitly).
		s.recheck = append(s.recheck, r)
	}
}

// reverseOffer is one candidate of a vacancy event.
type reverseOffer struct {
	req    RequestID
	weight float64
	beta   float64
}

// utility returns r's current net utility: w − λ at its assigned sink, or
// the 0 floor of being unassigned.
func (s *Solver) utility(r RequestID) float64 {
	own := s.assignment[r]
	if own == Unassigned {
		return 0
	}
	return s.wOf[r] - s.lambda[own]
}

// storedProfit returns r's profit π as the auction bookkeeping records it:
// w − b at its assigned sink (the forward bid rule sets b so that this is
// the second-best utility minus ε at bid time; a reverse grab sets b = λ,
// making it the grabbed utility), or the 0 floor when unassigned. Reverse
// bids MUST price against this stored π, not against a profit recomputed
// from current prices: the stored values move monotonically (forward bids
// and grabs only raise them), which is both the termination argument of
// the reverse auction and the reason its β₂-rule preserves ε-CS exactly —
// a recomputed π drifts as other prices fall, compounding the certificate
// slack wave over wave and livelocking the closing sweep.
func (s *Solver) storedProfit(r RequestID) float64 {
	if s.assignment[r] == Unassigned {
		return 0
	}
	return s.wOf[r] - s.bidOf[r]
}

// sweepEpsilonCS is the closing sweep of a Solve: it re-establishes the
// full ε-CS certificate. CS1 (unsold reserves) is always checked by a
// cheap O(sinks) scan — the belt that catches any vacancy the event
// bookkeeping missed. CS2/CS3 are checked over the whole graph only when
// something invalidated everything (fullSweep: initial state, SetEpsilon,
// a cold restart, Compact); otherwise only where they can possibly have
// broken — requests adjacent to a sink whose price *fell* (grabOffers and
// the reserve clamp, the only downward price moves; upward moves keep the
// classic auction monotonicity argument intact) and requests whose value
// fell while assigned (the 0-floor flag set by Apply). Violations are
// unassigned back into the queue; returns true when certificate-clean,
// otherwise the caller re-runs the auction. Every mover strictly improves
// by more than ε, so repeated sweeps converge (a bounded pass count
// cold-restarts as the last resort).
func (s *Solver) sweepEpsilonCS() (clean bool) {
	clean = true
	for t := range s.caps {
		if s.dirty(SinkID(t)) {
			s.pushWork(SinkID(t))
			clean = false
		}
	}
	if s.fullSweep {
		for r := range s.adj {
			if !s.checkRequestCS(RequestID(r)) {
				clean = false
			}
		}
		return clean
	}
	for _, rr := range s.recheck {
		if !s.checkRequestCS(rr) {
			clean = false
		}
	}
	if len(s.dropped) > 0 {
		s.own()
	}
	s.reqRound++ // dedup marker across the dropped sinks' adjacency lists
	for _, t := range s.dropped {
		if !s.sinkAlive[t] {
			continue
		}
		for _, r := range s.radj[t] {
			if !s.reqAlive[r] || s.reqStamp[r] == s.reqRound {
				continue
			}
			s.reqStamp[r] = s.reqRound
			if !s.checkRequestCS(r) {
				clean = false
			}
		}
	}
	return clean
}

// checkRequestCS re-checks one request's CS2/CS3 against current prices,
// unassigning and re-enqueueing it on violation. Reports whether the
// request was clean. Dead or already-queued requests are trivially clean
// (the queue drain re-certifies them).
func (s *Solver) checkRequestCS(r RequestID) (clean bool) {
	if !s.reqAlive[r] || s.inQueue[r] {
		return true
	}
	own := s.assignment[r]
	cur := s.utility(r)
	// The stay-unassigned option is part of CS2: a carried assignment
	// more than ε under water (possible after SetEpsilon tightened the
	// slack it was accepted with, or after a negative value shift) must
	// let go.
	if own != Unassigned && cur < -s.opts.Epsilon-1e-9 {
		s.unassign(r)
		s.enqueue(r)
		return false
	}
	for _, e := range s.adj[r] {
		if e.Sink == own || s.caps[e.Sink] == 0 {
			continue
		}
		// The slack mirrors VerifyEpsilonCS's float tolerance: the
		// forward bid rule leaves losers *exactly* ε behind in exact
		// arithmetic, so an exact comparison would re-enqueue on one ulp
		// of rounding noise and sweep forever.
		if e.Weight-s.lambda[e.Sink] > cur+s.opts.Epsilon+1e-9 {
			if own != Unassigned {
				s.unassign(r)
			}
			s.enqueue(r)
			return false
		}
	}
	return true
}

// surrenderReserves zeroes the price of every CS1-dirty sink — the first
// escalation stage of a sweep loop that will not settle. A vacant sink at
// price zero is trivially CS1-clean and its price can only rise again
// through forward bids, which restores the cold auction's monotone
// termination argument locally; everything else keeps its warm state. The
// zeroed sinks become strictly more attractive, so their neighborhoods are
// flagged for the next sweep.
func (s *Solver) surrenderReserves() {
	s.surrendered = true
	for t := range s.caps {
		if s.dirty(SinkID(t)) {
			s.lambda[t] = 0
			s.noteDrop(SinkID(t))
		}
	}
	// The knot's vacancy events are moot at price zero.
	for _, t := range s.work {
		s.inWork[t] = false
	}
	s.work = s.work[:0]
}

// coldReset drops all carried state: prices to 0, assignment sets emptied,
// every live request re-enqueued, pending repairs discarded (zero prices
// cannot violate CS1). The next drain is exactly a cold solve.
func (s *Solver) coldReset() {
	for t := range s.caps {
		s.lambda[t] = 0
		s.accepted[t] = s.accepted[t][:0]
		s.inWork[t] = false
	}
	s.work = s.work[:0]
	s.queue = s.queue[:0]
	s.qHead = 0
	for r := range s.adj {
		s.assignment[r] = Unassigned
		s.bidOf[r] = 0
		s.wOf[r] = 0
		s.inQueue[r] = false
		if s.reqAlive[r] {
			s.enqueue(RequestID(r))
		}
	}
	s.fullSweep = true
}

// Solve re-optimizes after the Load or the deltas applied since the
// previous Solve and returns the assignment, prices and diagnostics with the
// ε-complementary-slackness certificate (welfare within NumRequests·ε of
// optimal for ε > 0; Stalled semantics at ε = 0). The first Solve after
// NewSolver or Load is a cold solve.
func (s *Solver) Solve() (*AuctionResult, error) {
	res := &AuctionResult{}
	maxW, err := s.solveCore(res)
	if err != nil {
		return nil, err
	}
	res.Assignment = &Assignment{SinkOf: append([]SinkID(nil), s.assignment...)}
	res.Prices = s.certifiedPrices(make([]float64, len(s.caps)), maxW)
	return res, nil
}

// solveCore runs the warm re-optimization (drain, repair chains, closing
// sweep with staged escalation), leaving the solver certificate-clean and
// the diagnostics in res; the caller materializes the assignment/prices.
func (s *Solver) solveCore(res *AuctionResult) (maxW float64, err error) {
	maxIterations := s.opts.MaxIterations
	if maxIterations == 0 {
		maxIterations = 1_000_000 + 100*s.aliveReqs
	}
	maxW = s.weightCeiling()
	// ε-rescaling guard: a reserve above every live weight can never sell —
	// it would only queue a pointless vacancy event — so stale reserves are
	// clamped to the current weight ceiling up front.
	for t := range s.caps {
		if s.sinkAlive[t] && s.lambda[t] > maxW {
			s.lambda[t] = maxW
			s.noteDrop(SinkID(t))
		}
	}

	// Drain the bidding queue first (bidders may refill delta-induced
	// vacancies for free), then run one batched reverse-auction wave over
	// every sink the deltas left CS1-dirty; the displacement chains it
	// spawns are walked by per-sink vacancy events inside runAuction. The
	// final sweep is a belt-and-braces check: any violation it still finds
	// gets more passes, then a cold restart — correctness never depends on
	// the event bookkeeping being airtight.
	if s.radjSize > 2*s.numEdges+64 {
		s.rebuildRadj()
	}
	if err := s.runOrRestart(res, maxIterations); err != nil {
		return 0, err
	}
	// Vacancy events are queued at every site that can leave a sink
	// CS1-dirty (unassign, capacity changes), so the drain above already
	// walked every repair chain — no whole-sink pass needed before the
	// closing sweep. Sweep passes are cheap (incremental over price drops,
	// or O(E) when everything was invalidated) compared to the escalations
	// they guard, so the budget is generous: profile data shows 1–3 passes
	// typical. A handful of requests and vacant sinks can ping-pong
	// between repair price cuts and forward re-bids far longer than that
	// (measured on the churn scenarios: a 2-request knot burning the whole
	// budget); escalation is staged — first surrender just the knot's
	// reserves (zero the still-dirty sinks' prices: the market has
	// rejected them a budget's worth of times, and from zero the local
	// prices are rise-only again, which is the cold auction's termination
	// argument), and only if a fresh budget still cannot stabilize fall
	// back to the full cold restart.
	lastEscalation := 0
	for pass := 0; !res.Stalled; pass++ {
		res.SweepPasses++
		if s.sweepEpsilonCS() {
			s.clearSweepHints()
			break
		}
		if pass-lastEscalation >= 10 {
			lastEscalation = pass
			switch {
			case !s.surrendered:
				res.Surrenders++
				s.surrenderReserves()
			case !res.Restarted:
				res.Restarted = true
				s.coldReset()
			default:
				return 0, fmt.Errorf("core: incremental auction cannot restore ε-CS (ε=%v)", s.opts.Epsilon)
			}
		}
		if err := s.runAuction(res, res.Iterations+maxIterations); err != nil {
			return 0, err
		}
	}
	s.surrendered = false
	s.warm = true
	return maxW, nil
}

// solveDetached is Solve for a solver about to be dropped: the result takes
// over the solver's assignment and price arrays instead of copying them.
func (s *Solver) solveDetached() (*AuctionResult, error) {
	res := &AuctionResult{}
	maxW, err := s.solveCore(res)
	if err != nil {
		return nil, err
	}
	res.Assignment = &Assignment{SinkOf: s.assignment}
	res.Prices = s.certifiedPrices(s.lambda, maxW)
	return res, nil
}

// certifiedPrices fills dst (len == len(s.caps); it may be s.lambda) with
// the complete dual certificate: live sinks' λ, with zero-capacity sinks
// priced out at the weight ceiling.
func (s *Solver) certifiedPrices(dst []float64, maxW float64) []float64 {
	for t := range s.caps {
		switch {
		case !s.sinkAlive[t]:
			dst[t] = 0
		case s.caps[t] == 0:
			// A zero-capacity sink contributes λ·0 to the dual objective,
			// so λ can be raised for free to dominate every incident
			// weight. Emitting that choice makes (assignment, prices) a
			// complete dual certificate: DualObjective and VerifyEpsilonCS
			// hold without special-casing unsellable sinks.
			dst[t] = maxW
		default:
			dst[t] = s.lambda[t]
		}
	}
	return dst
}

// SolveShared is Solve with solver-owned result storage: the returned
// AuctionResult (and its Assignment and Prices) alias reused buffers that
// are valid only until the next Load, Apply or Solve of any flavor — the
// allocation-free variant for callers that consume the result before
// touching the solver again (the per-round loops of sched.Auction and
// sched.WarmAuction).
func (s *Solver) SolveShared() (*AuctionResult, error) {
	res := &s.resultBuf
	*res = AuctionResult{}
	maxW, err := s.solveCore(res)
	if err != nil {
		return nil, err
	}
	s.assignBuf.SinkOf = append(s.assignBuf.SinkOf[:0], s.assignment...)
	res.Assignment = &s.assignBuf
	if cap(s.priceBuf) < len(s.caps) {
		s.priceBuf = make([]float64, len(s.caps))
	}
	s.priceBuf = s.priceBuf[:len(s.caps)]
	res.Prices = s.certifiedPrices(s.priceBuf, maxW)
	return res, nil
}

// VerifyState machine-checks the carried certificate: primal feasibility of
// the internal assignment and ε-complementary slackness of (assignment,
// prices) over the live subproblem, plus internal bookkeeping invariants
// (stored bids match heap entries, loads match heap sizes). tol absorbs
// floating-point noise. Valid after a Solve that did not stall; deltas
// applied since then may legitimately break it.
func (s *Solver) VerifyState(tol float64) error {
	for t := range s.caps {
		live := s.sinkAlive[t]
		if !live && (s.accepted[t].Len() != 0 || s.lambda[t] != 0) {
			return fmt.Errorf("core: dead sink %d retains state", t)
		}
		if !live {
			continue
		}
		if s.accepted[t].Len() > s.caps[t] {
			return fmt.Errorf("core: sink %d holds %d bids, capacity %d", t, s.accepted[t].Len(), s.caps[t])
		}
		if s.lambda[t] < -tol {
			return fmt.Errorf("core: negative price λ[%d]=%v", t, s.lambda[t])
		}
		if s.caps[t] > 0 && s.lambda[t] > tol && s.accepted[t].Len() < s.caps[t] {
			return fmt.Errorf("core: CS1 violated: λ[%d]=%v but %d/%d sold",
				t, s.lambda[t], s.accepted[t].Len(), s.caps[t])
		}
		for _, ab := range s.accepted[t] {
			if s.assignment[ab.req] != SinkID(t) {
				return fmt.Errorf("core: sink %d holds bid of request %d assigned to %d",
					t, ab.req, s.assignment[ab.req])
			}
			if s.bidOf[ab.req] != ab.bid {
				return fmt.Errorf("core: request %d stored bid %v, heap bid %v",
					ab.req, s.bidOf[ab.req], ab.bid)
			}
		}
	}
	for r := range s.adj {
		own := s.assignment[r]
		if !s.reqAlive[r] {
			if own != Unassigned {
				return fmt.Errorf("core: dead request %d still assigned to %d", r, own)
			}
			continue
		}
		best := 0.0
		var ownUtility float64
		ownFound := own == Unassigned
		for _, e := range s.adj[r] {
			if !s.sinkAlive[e.Sink] || s.caps[e.Sink] == 0 {
				continue
			}
			if u := e.Weight - s.lambda[e.Sink]; u > best {
				best = u
			}
			if e.Sink == own {
				ownFound = true
				ownUtility = e.Weight - s.lambda[e.Sink]
			}
		}
		if !ownFound {
			return fmt.Errorf("core: request %d assigned to sink %d without a live edge", r, own)
		}
		if own == Unassigned {
			if best > s.opts.Epsilon+tol {
				return fmt.Errorf("core: CS3 violated: request %d unassigned, best utility %v > ε=%v",
					r, best, s.opts.Epsilon)
			}
			continue
		}
		if ownUtility < best-s.opts.Epsilon-tol {
			return fmt.Errorf("core: CS2 violated: request %d at sink %d nets %v, best is %v (ε=%v)",
				r, own, ownUtility, best, s.opts.Epsilon)
		}
	}
	return nil
}

// Compact reclaims dead request and sink slots, remapping the survivors to
// dense ids, and returns the old→new maps so callers can rewrite their
// handles. Edges to dead sinks are pruned. Carried prices, assignments and
// the queue survive compaction, so it is transparent to warm-start quality.
func (s *Solver) Compact() (requests map[RequestID]RequestID, sinks map[SinkID]SinkID) {
	s.own()
	sinks = make(map[SinkID]SinkID, s.aliveSinks)
	for t := range s.caps {
		if s.sinkAlive[t] {
			sinks[SinkID(t)] = SinkID(len(sinks))
		}
	}
	requests = make(map[RequestID]RequestID, s.aliveReqs)
	for r := range s.adj {
		if s.reqAlive[r] {
			requests[RequestID(r)] = RequestID(len(requests))
		}
	}

	caps := make([]int, len(sinks))
	lambda := make([]float64, len(sinks))
	accepted := make([]bidHeap, len(sinks))
	for t, nt := range sinks {
		caps[nt] = s.caps[t]
		lambda[nt] = s.lambda[t]
		h := s.accepted[t]
		for i := range h {
			h[i].req = requests[h[i].req]
		}
		accepted[nt] = h
	}
	adj := make([][]Edge, len(requests))
	assignment := make([]SinkID, len(requests))
	bidOf := make([]float64, len(requests))
	wOf := make([]float64, len(requests))
	numEdges := 0
	for r, nr := range requests {
		kept := s.adj[r][:0]
		for _, e := range s.adj[r] {
			if nt, live := sinks[e.Sink]; live {
				kept = append(kept, Edge{Sink: nt, Weight: e.Weight})
			}
		}
		adj[nr] = kept
		numEdges += len(kept)
		if old := s.assignment[r]; old == Unassigned {
			assignment[nr] = Unassigned
		} else {
			assignment[nr] = sinks[old]
		}
		bidOf[nr] = s.bidOf[r]
		wOf[nr] = s.wOf[r]
	}
	queue := s.queue[:0]
	inQueue := make([]bool, len(requests))
	for _, r := range s.queue[s.qHead:] {
		if nr, live := requests[r]; live && s.inQueue[r] {
			queue = append(queue, nr)
			inQueue[nr] = true
		}
	}
	s.qHead = 0
	work := s.work[:0]
	inWork := make([]bool, len(sinks))
	for _, t := range s.work {
		if nt, live := sinks[t]; live && s.inWork[t] {
			work = append(work, nt)
			inWork[nt] = true
		}
	}

	s.caps, s.lambda, s.accepted = caps, lambda, accepted
	s.adj, s.assignment, s.bidOf, s.wOf = adj, assignment, bidOf, wOf
	s.queue, s.inQueue = queue, inQueue
	s.work, s.inWork = work, inWork
	s.numEdges = numEdges
	s.sinkAlive = make([]bool, len(caps))
	s.reqAlive = make([]bool, len(adj))
	for i := range s.sinkAlive {
		s.sinkAlive[i] = true
	}
	for i := range s.reqAlive {
		s.reqAlive[i] = true
	}
	s.radj = make([][]RequestID, len(caps))
	s.rebuildRadj()
	s.dupStamp = make([]uint64, len(caps))
	s.dupRound = 0
	s.reqStamp = make([]uint64, len(adj))
	s.reqRound = 0
	s.waveStart, s.waveCap, s.waveFill = nil, nil, nil
	s.edgePool = nil
	s.dropped = s.dropped[:0]
	s.inDropped = make([]bool, len(caps))
	s.recheck = s.recheck[:0]
	s.fullSweep = true
	return requests, sinks
}
