package sched

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/isp"
	"repro/internal/video"
)

// reqKey identifies a request across slots: the same peer wanting the same
// chunk is the same economic actor, whatever its index in this slot's
// Instance.
type reqKey struct {
	peer  isp.PeerID
	chunk video.ChunkID
}

// reqState is the wrapper's persistent view of one live request.
type reqState struct {
	id    core.RequestID
	value float64
	cands []Candidate // interned copy in the WarmAuction's own arena
}

// sinkState is the wrapper's persistent view of one live uploader.
type sinkState struct {
	id       core.SinkID
	capacity int
}

// WarmAuction is the warm-starting counterpart of Auction: a stateful
// scheduler that turns each slot's change into core.ProblemDeltas for a
// persistent core.Solver, so the auction re-converges from the previous
// slot's prices instead of from λ = 0 every slot. Under churn the problem
// changes only marginally between slots, which makes the amortized cost per
// slot a fraction of a cold solve's (see docs/PERFORMANCE.md); the solution
// quality guarantee is unchanged — every slot terminates with the same
// ε-complementary-slackness certificate as the cold auction.
//
// Every call consumes an InstanceDelta relating the instance's rows to the
// previous call's. A producer that already knows it (a Builder-driven
// simulation) hands it to ScheduleDelta; Schedule, a nil delta and the first
// call derive it by matching uploaders by peer and requests by (peer, chunk)
// against the previous rows. Either way one applier resolves carried rows
// through per-row state caches: a surviving request is an exact carry, a
// pure re-valuation (a core.ValueShift, the every-round deadline
// tightening) or a full edge rewrite (changed neighbor set); uploaders diff
// into capacity changes and arrivals/departures. InstanceDelta.Identity
// collapses further to a pure value/capacity sweep. A Builder's delta ships
// unchecked; derived and Projected deltas go through the validating
// core.Solver.Apply. A diff or apply that fails discards the warm state, so
// the next call solves cold.
//
// A WarmAuction carries state across Schedule calls and is therefore bound
// to one simulation run: create a fresh value per run (as scenario.Spec.Run
// does) and do not share it across goroutines.
type WarmAuction struct {
	// Epsilon is the bid increment (same semantics as Auction.Epsilon).
	Epsilon float64

	solver *core.Solver
	// prevReqKeys / prevSinkPeers list the previous instance's keys in row
	// order: what a derived delta matches the next instance against.
	prevReqKeys   []reqKey
	prevSinkPeers []isp.PeerID
	// derived, reqIdx and upIdx are the delta derivation's scratch.
	derived InstanceDelta
	reqIdx  rowIndex[reqKey]
	upIdx   rowIndex[isp.PeerID]
	// Reused scratch buffers: an edge arena for delta construction (Apply
	// copies, so the arena is free to be recycled next round), the key
	// double-buffer, per-row state caches aligned with the current instance
	// (double-buffered so the applier can read the previous round's rows
	// while writing this round's), the solver-delta op lists, and the
	// added-entity staging arrays.
	edgeBuf    []core.Edge
	keyBuf     []reqKey
	reqRow     []*reqState
	reqRowBuf  []*reqState
	sinkRow    []*sinkState
	sinkRowBuf []*sinkState
	opsBuf     core.ProblemDelta
	addedReqs  []*Request
	addedRows  []int
	addedEdges [][]core.Edge
	addedPeers []isp.PeerID
	// removedStates stages the round's departed requests: their solver ids
	// (and state objects) are recycled for this round's additions instead
	// of minting fresh ids — see emitRequestChurn. stateFree holds dead
	// state objects beyond the pairing for later rounds.
	removedStates []*reqState
	stateFree     []*reqState
	// candArena/candArenaPrev double-buffer the interned candidate lists:
	// instances may come from a reusing Builder whose arrays are recycled
	// two rounds later, so everything the WarmAuction keeps across calls is
	// copied into its own arena (the previous round's copies — what the
	// next diff compares against — live in the spare half).
	candArena     []Candidate
	candArenaPrev []Candidate
	// sinkPeer maps solver sink ids back to uploader peers (dense; solver
	// ids are small ints), so grant translation is an array load instead of
	// a per-candidate map probe.
	sinkPeer []isp.PeerID
	// ops accumulates this round's solver-delta operation counts across
	// the (up to two) Apply calls a diff issues — opsBuf is recycled
	// between them, so sizes must be captured at Apply time.
	ops deltaOpCounts
}

// deltaOpCounts tallies one round's solver-delta operations, for the
// telemetry emitted in Result.Stats.
type deltaOpCounts struct {
	addReqs, removeReqs, updateReqs, shifts int
	addSinks, removeSinks, setCaps          int
}

// apply folds one solver delta into the round tally and ships it: checked
// for deltas derived from arbitrary instances or projected by a consumer,
// unchecked for a Builder's (core.Solver.ApplyUnchecked).
func (a *WarmAuction) apply(d *core.ProblemDelta, checked bool) (*core.AppliedDelta, error) {
	a.ops.addReqs += len(d.AddRequests)
	a.ops.removeReqs += len(d.RemoveRequests)
	a.ops.updateReqs += len(d.UpdateRequests)
	a.ops.shifts += len(d.ShiftValues)
	a.ops.addSinks += len(d.AddSinks)
	a.ops.removeSinks += len(d.RemoveSinks)
	a.ops.setCaps += len(d.SetCapacities)
	if checked {
		return a.solver.Apply(*d)
	}
	return a.solver.ApplyUnchecked(*d), nil
}

var _ Scheduler = (*WarmAuction)(nil)
var _ DeltaScheduler = (*WarmAuction)(nil)

// Name implements Scheduler.
func (a *WarmAuction) Name() string { return "auction-warm" }

// compactThreshold is how many dead solver slots WarmAuction tolerates
// before compacting (dead slots also must outnumber live ones twice over —
// compaction rewrites every handle, so it must stay rare relative to the
// per-slot churn that creates the garbage).
const compactThreshold = 8192

// Schedule implements Scheduler: ScheduleDelta with a nil delta, which
// derives the delta from the previous call's rows by key.
func (a *WarmAuction) Schedule(in *Instance) (*Result, error) {
	return a.ScheduleDelta(in, nil)
}

// ScheduleDelta implements DeltaScheduler: apply the delta relating this
// instance to the previous call's to the persistent solver and re-optimize
// warm. A nil delta (or a first call, which has nothing to be incremental
// against) is derived by key-matching.
func (a *WarmAuction) ScheduleDelta(in *Instance, d *InstanceDelta) (*Result, error) {
	if a.solver == nil {
		solver, err := core.NewSolver(core.AuctionOptions{Epsilon: a.Epsilon})
		if err != nil {
			return nil, fmt.Errorf("warm auction: %w", err)
		}
		a.solver = solver
		d = nil
	}
	a.maybeCompact()
	a.ops = deltaOpCounts{}
	var carried int
	var err error
	switch {
	case d == nil:
		carried, err = a.applyKnownDelta(in, a.deriveDelta(in), true)
	case d.Identity:
		carried, err = a.applyIdentity(in)
	default:
		carried, err = a.applyKnownDelta(in, d, d.Projected)
	}
	if err != nil {
		// The solver may hold half of the delta: drop the warm state so the
		// next call solves cold rather than against ghost rows.
		*a = WarmAuction{Epsilon: a.Epsilon}
		return nil, fmt.Errorf("warm auction: %w", err)
	}
	return a.finish(in, carried)
}

// finish runs the warm solve and translates the solver's assignment back to
// grants and prices — the shared tail of every diff path.
func (a *WarmAuction) finish(in *Instance, carried int) (*Result, error) {
	res, err := a.solver.SolveShared()
	if err != nil {
		return nil, fmt.Errorf("warm auction: %w", err)
	}
	out := &Result{
		Prices: make(map[isp.PeerID]float64, len(in.Uploaders)),
		Stats: map[string]float64{
			"bids":          float64(res.Bids),
			"iterations":    float64(res.Iterations),
			"evictions":     float64(res.Evictions),
			"repair_rounds": float64(res.RepairRounds),
			"carried":       float64(carried),
			"sweep_passes":  float64(res.SweepPasses),
			"delta_ops": float64(a.ops.addReqs + a.ops.removeReqs +
				a.ops.updateReqs + a.ops.shifts + a.ops.addSinks +
				a.ops.removeSinks + a.ops.setCaps),
			"delta_request_churn": float64(a.ops.addReqs + a.ops.removeReqs + a.ops.updateReqs),
			"delta_value_shifts":  float64(a.ops.shifts),
			"delta_sink_churn":    float64(a.ops.addSinks + a.ops.removeSinks),
			"delta_capacity_sets": float64(a.ops.setCaps),
		},
	}
	if res.Restarted {
		out.Stats["cold_restarts"] = 1
	}
	if res.Surrenders > 0 {
		out.Stats["reserve_surrenders"] = float64(res.Surrenders)
	}
	for i := range in.Uploaders {
		out.Prices[in.Uploaders[i].Peer] = res.Prices[a.sinkRow[i].id]
	}
	granted := 0
	for ri := range in.Requests {
		if res.Assignment.SinkOf[a.reqRow[ri].id] != core.Unassigned {
			granted++
		}
	}
	if granted > 0 {
		out.Grants = make([]Grant, 0, granted)
	}
	for ri := range in.Requests {
		if s := res.Assignment.SinkOf[a.reqRow[ri].id]; s != core.Unassigned {
			out.Grants = append(out.Grants, Grant{Request: ri, Uploader: a.grantUploader(s)})
		}
	}
	return out, nil
}

// noteSinkPeer records the sink→peer mapping for grant translation.
func (a *WarmAuction) noteSinkPeer(id core.SinkID, p isp.PeerID) {
	for int(id) >= len(a.sinkPeer) {
		a.sinkPeer = append(a.sinkPeer, -1)
	}
	a.sinkPeer[id] = p
}

// grantUploader maps a granted solver sink back to the uploader peer.
func (a *WarmAuction) grantUploader(s core.SinkID) isp.PeerID {
	if int(s) < len(a.sinkPeer) {
		if p := a.sinkPeer[s]; p >= 0 {
			return p
		}
	}
	panic(fmt.Sprintf("sched: solver sink %d has no uploader mapping", s))
}

func key(r *Request) reqKey { return reqKey{peer: r.Peer, chunk: r.Chunk} }

// sameCandidates reports whether a request kept its exact candidate list
// (order-sensitively — a reordered neighbor list is conservatively treated
// as a change).
func sameCandidates(prev []Candidate, cur []Candidate) bool {
	if len(prev) != len(cur) {
		return false
	}
	for i := range prev {
		if prev[i] != cur[i] {
			return false
		}
	}
	return true
}

// internCands copies a candidate list into the WarmAuction's own arena —
// the only memory of the instance it is allowed to keep across calls.
func (a *WarmAuction) internCands(c []Candidate) []Candidate {
	start := len(a.candArena)
	a.candArena = append(a.candArena, c...)
	return a.candArena[start:len(a.candArena):len(a.candArena)]
}

// swapCandArena rotates the candidate arenas at the start of a diff: the
// previous round's interned lists (the comparison baseline) move to the
// spare half, and the current half restarts empty.
func (a *WarmAuction) swapCandArena() {
	a.candArena, a.candArenaPrev = a.candArenaPrev[:0], a.candArena
}

// resetOps recycles the solver-delta op lists (Apply consumes the ops by
// value and copies every edge list, so the backing arrays are free to be
// reused the moment it returns).
func (a *WarmAuction) resetOps() *core.ProblemDelta {
	d := &a.opsBuf
	d.AddRequests = d.AddRequests[:0]
	d.RemoveRequests = d.RemoveRequests[:0]
	d.UpdateRequests = d.UpdateRequests[:0]
	d.ShiftValues = d.ShiftValues[:0]
	d.AddSinks = d.AddSinks[:0]
	d.RemoveSinks = d.RemoveSinks[:0]
	d.SetCapacities = d.SetCapacities[:0]
	return d
}

// applyIdentity is ScheduleDelta's fast path for InstanceDelta.Identity:
// the instance has the same rows as last round — only values and capacities
// may have moved — so the diff is a single comparison sweep with no key or
// row bookkeeping at all. Value shifts and capacity changes commute inside
// one solver delta (shifts touch weights, capacities touch books), so both
// sides ship in one Apply.
func (a *WarmAuction) applyIdentity(in *Instance) (carried int, err error) {
	if len(a.sinkRow) != len(in.Uploaders) || len(a.reqRow) != len(in.Requests) {
		return 0, fmt.Errorf("identity delta shape mismatch: %d uploaders over %d rows, %d requests over %d rows",
			len(in.Uploaders), len(a.sinkRow), len(in.Requests), len(a.reqRow))
	}
	d := a.resetOps()
	for i := range in.Uploaders {
		u := &in.Uploaders[i]
		st := a.sinkRow[i]
		if st.capacity != u.Capacity {
			d.SetCapacities = append(d.SetCapacities,
				core.SinkCapacity{Sink: st.id, Capacity: u.Capacity})
			st.capacity = u.Capacity
		}
	}
	for ri := range in.Requests {
		r := &in.Requests[ri]
		st := a.reqRow[ri]
		if r.Value != st.value {
			d.ShiftValues = append(d.ShiftValues,
				core.ValueShift{Request: st.id, Delta: r.Value - st.value})
			st.value = r.Value
		}
		// Identity promises the candidate lists equal the interned copies
		// already held, so the arenas stay untouched: st.cands keep
		// pointing into the current arena half, which the next
		// non-identity round's swap turns into the comparison baseline.
	}
	_, err = a.apply(d, false)
	return len(in.Requests), err
}

// applyKnownDelta consumes a general delta, producer-supplied or derived:
// removals and carried rows resolve through the previous round's row caches,
// and only new or edge-rewritten requests pay edge construction. Sinks go
// first so request edges can reference freshly minted ones. checked selects
// the validating core.Solver.Apply.
func (a *WarmAuction) applyKnownDelta(in *Instance, d *InstanceDelta, checked bool) (carried int, err error) {
	if len(d.PrevUp) != len(in.Uploaders) || len(d.PrevReq) != len(in.Requests) ||
		len(d.SameCands) != len(in.Requests) {
		return 0, fmt.Errorf("delta shape mismatch: %d uploader rows for %d uploaders, %d request rows for %d requests",
			len(d.PrevUp), len(in.Uploaders), len(d.PrevReq), len(in.Requests))
	}
	prevSinks, prevReqs := a.sinkRow, a.reqRow
	a.swapCandArena()

	// Sink side.
	sinkDelta := a.resetOps()
	for _, pr := range d.RemovedUps {
		if int(pr) >= len(prevSinks) || prevSinks[pr] == nil {
			return 0, fmt.Errorf("delta removes unknown uploader row %d", pr)
		}
		sinkDelta.RemoveSinks = append(sinkDelta.RemoveSinks, prevSinks[pr].id)
	}
	newSinkRow := a.sinkRowBuf[:0]
	a.addedPeers = a.addedPeers[:0]
	a.addedRows = a.addedRows[:0]
	carriedUps := 0
	for i := range in.Uploaders {
		u := &in.Uploaders[i]
		pr := d.PrevUp[i]
		if pr >= 0 {
			if int(pr) >= len(prevSinks) || prevSinks[pr] == nil {
				return 0, fmt.Errorf("delta carries unknown uploader row %d", pr)
			}
			st := prevSinks[pr]
			newSinkRow = append(newSinkRow, st)
			carriedUps++
			if st.capacity != u.Capacity {
				sinkDelta.SetCapacities = append(sinkDelta.SetCapacities,
					core.SinkCapacity{Sink: st.id, Capacity: u.Capacity})
				st.capacity = u.Capacity
			}
			continue
		}
		sinkDelta.AddSinks = append(sinkDelta.AddSinks, u.Capacity)
		a.addedPeers = append(a.addedPeers, u.Peer)
		a.addedRows = append(a.addedRows, i)
		newSinkRow = append(newSinkRow, nil)
	}
	if carriedUps+len(d.RemovedUps) != len(prevSinks) {
		return 0, fmt.Errorf("uploader delta does not cover the previous instance: %d carried + %d removed != %d rows",
			carriedUps, len(d.RemovedUps), len(prevSinks))
	}
	applied, err := a.apply(sinkDelta, checked)
	if err != nil {
		return 0, err
	}
	for i, s := range applied.Sinks {
		row := a.addedRows[i]
		st := &sinkState{id: s, capacity: in.Uploaders[row].Capacity}
		a.noteSinkPeer(s, a.addedPeers[i])
		newSinkRow[row] = st
	}
	a.sinkRow, a.sinkRowBuf = newSinkRow, prevSinks[:0]
	a.prevSinkPeers = a.prevSinkPeers[:0]
	for i := range in.Uploaders {
		a.prevSinkPeers = append(a.prevSinkPeers, in.Uploaders[i].Peer)
	}

	// Request side.
	a.edgeBuf = a.edgeBuf[:0]
	reqDelta := a.resetOps()
	a.removedStates = a.removedStates[:0]
	for _, pr := range d.RemovedReqs {
		if int(pr) >= len(prevReqs) || prevReqs[pr] == nil {
			return 0, fmt.Errorf("delta removes unknown request row %d", pr)
		}
		a.removedStates = append(a.removedStates, prevReqs[pr])
	}
	newReqRow := a.reqRowBuf[:0]
	curKeys := a.keyBuf[:0]
	a.addedReqs = a.addedReqs[:0]
	a.addedRows = a.addedRows[:0]
	a.addedEdges = a.addedEdges[:0]
	carriedRows := 0
	for ri := range in.Requests {
		r := &in.Requests[ri]
		curKeys = append(curKeys, key(r))
		pr := d.PrevReq[ri]
		if pr < 0 {
			edges := a.edgesOf(in, ri)
			a.addedEdges = append(a.addedEdges, edges)
			a.addedReqs = append(a.addedReqs, r)
			a.addedRows = append(a.addedRows, ri)
			newReqRow = append(newReqRow, nil)
			continue
		}
		if int(pr) >= len(prevReqs) || prevReqs[pr] == nil {
			return 0, fmt.Errorf("delta carries unknown request row %d", pr)
		}
		st := prevReqs[pr]
		newReqRow = append(newReqRow, st)
		carriedRows++
		if d.SameCands[ri] {
			if r.Value != st.value {
				reqDelta.ShiftValues = append(reqDelta.ShiftValues,
					core.ValueShift{Request: st.id, Delta: r.Value - st.value})
				st.value = r.Value
			}
			st.cands = a.internCands(r.Candidates)
			carried++
			continue
		}
		edges := a.edgesOf(in, ri)
		reqDelta.UpdateRequests = append(reqDelta.UpdateRequests,
			core.RequestEdges{Request: st.id, Edges: edges})
		st.value, st.cands = r.Value, a.internCands(r.Candidates)
	}
	if carriedRows+len(d.RemovedReqs) != len(prevReqs) {
		return 0, fmt.Errorf("request delta does not cover the previous instance: %d carried + %d removed != %d rows",
			carriedRows, len(d.RemovedReqs), len(prevReqs))
	}
	a.emitRequestChurn(reqDelta)
	if applied, err = a.apply(reqDelta, checked); err != nil {
		return 0, err
	}
	a.bindChurnedRequests(applied, newReqRow)
	a.keyBuf = a.prevReqKeys // swap buffers
	a.prevReqKeys = curKeys
	a.reqRow, a.reqRowBuf = newReqRow, prevReqs[:0]
	return carried, nil
}

// emitRequestChurn turns the staged removals and additions into solver
// ops, pairing them one-to-one into id-recycling UpdateRequests first: an
// update is exactly a removal plus an addition (vacate, new edge set,
// re-enqueue) minus the id mint, and the sim's sliding windows retire and
// create hundreds of requests per round — without recycling the solver's
// per-id state grows by the cumulative request count of the whole run.
// Only the excess on either side becomes plain RemoveRequests/AddRequests.
func (a *WarmAuction) emitRequestChurn(reqDelta *core.ProblemDelta) {
	n := len(a.removedStates)
	if len(a.addedEdges) < n {
		n = len(a.addedEdges)
	}
	for i := 0; i < n; i++ {
		reqDelta.UpdateRequests = append(reqDelta.UpdateRequests,
			core.RequestEdges{Request: a.removedStates[i].id, Edges: a.addedEdges[i]})
	}
	for _, st := range a.removedStates[n:] {
		reqDelta.RemoveRequests = append(reqDelta.RemoveRequests, st.id)
		if len(a.stateFree) < 4096 {
			a.stateFree = append(a.stateFree, st) // dead object, reusable
		}
	}
	for _, e := range a.addedEdges[n:] {
		reqDelta.AddRequests = append(reqDelta.AddRequests, e)
	}
}

// bindChurnedRequests wires this round's additions to their states after
// the solver applied the churn: the first pairs recycle the departed
// requests' state objects (same solver id, new identity), the rest bind
// freshly minted ids.
func (a *WarmAuction) bindChurnedRequests(applied *core.AppliedDelta, rows []*reqState) {
	n := len(a.removedStates)
	if len(a.addedEdges) < n {
		n = len(a.addedEdges)
	}
	for i := 0; i < n; i++ {
		st := a.removedStates[i]
		st.value = a.addedReqs[i].Value
		st.cands = a.internCands(a.addedReqs[i].Candidates)
		rows[a.addedRows[i]] = st
	}
	for j, id := range applied.Requests {
		i := n + j
		var st *reqState
		if k := len(a.stateFree); k > 0 {
			st, a.stateFree = a.stateFree[k-1], a.stateFree[:k-1]
		} else {
			st = &reqState{}
		}
		*st = reqState{id: id, value: a.addedReqs[i].Value, cands: a.internCands(a.addedReqs[i].Candidates)}
		rows[a.addedRows[i]] = st
	}
}

// deriveDelta matches the instance against the previous call's rows —
// uploaders by peer, requests by (peer, chunk) — into the InstanceDelta a
// producer would have handed over. Removals come out in ascending
// previous-row order.
func (a *WarmAuction) deriveDelta(in *Instance) *InstanceDelta {
	d := &a.derived
	a.upIdx.reset(a.prevSinkPeers)
	d.PrevUp = d.PrevUp[:0]
	for i := range in.Uploaders {
		d.PrevUp = append(d.PrevUp, a.upIdx.claim(in.Uploaders[i].Peer))
	}
	d.RemovedUps = a.upIdx.unclaimed(d.RemovedUps[:0])

	a.reqIdx.reset(a.prevReqKeys)
	d.PrevReq, d.SameCands = d.PrevReq[:0], d.SameCands[:0]
	for ri := range in.Requests {
		r := &in.Requests[ri]
		pr := a.reqIdx.claim(key(r))
		d.PrevReq = append(d.PrevReq, pr)
		d.SameCands = append(d.SameCands, pr >= 0 && sameCandidates(a.reqRow[pr].cands, r.Candidates))
	}
	d.RemovedReqs = a.reqIdx.unclaimed(d.RemovedReqs[:0])
	return d
}

// rowIndex matches a new instance's keys against the previous instance's
// rows. Each previous row is claimed at most once, so a key repeated within
// one instance matches on its first occurrence and later repeats are new.
type rowIndex[K comparable] struct {
	rows    map[K]int32
	claimed []bool
}

// reset indexes the previous instance's keys, the first occurrence winning.
func (x *rowIndex[K]) reset(prev []K) {
	if x.rows == nil {
		x.rows = make(map[K]int32, len(prev))
	}
	clear(x.rows)
	for i := len(prev) - 1; i >= 0; i-- {
		x.rows[prev[i]] = int32(i)
	}
	x.claimed = slices.Grow(x.claimed[:0], len(prev))[:len(prev)]
	clear(x.claimed)
}

// claim returns the unclaimed previous row holding k and claims it, or -1.
func (x *rowIndex[K]) claim(k K) int32 {
	pr, ok := x.rows[k]
	if !ok || x.claimed[pr] {
		return -1
	}
	x.claimed[pr] = true
	return pr
}

// unclaimed appends the previous rows no key claimed, in ascending order.
func (x *rowIndex[K]) unclaimed(dst []int32) []int32 {
	for pr, c := range x.claimed {
		if !c {
			dst = append(dst, int32(pr))
		}
	}
	return dst
}

// edgesOf translates request ri's candidates into solver edges (weight
// v − w, as buildProblem does for the cold path), each edge's sink read
// from its uploader row's state, carved out of the per-round edge arena.
// It runs after the sink side, so a.sinkRow is aligned with in.Uploaders.
// Arena growth may strand earlier slices on the old backing array; they
// stay valid, the capacity is simply rebuilt next round.
func (a *WarmAuction) edgesOf(in *Instance, ri int) []core.Edge {
	r := &in.Requests[ri]
	start := len(a.edgeBuf)
	for k, row := range in.Rows(ri) {
		a.edgeBuf = append(a.edgeBuf, core.Edge{Sink: a.sinkRow[row].id, Weight: r.Value - r.Candidates[k].Cost})
	}
	return a.edgeBuf[start:len(a.edgeBuf):len(a.edgeBuf)]
}

// VerifyState machine-checks the persistent solver's carried certificate
// (core.Solver.VerifyState): primal feasibility plus ε-complementary
// slackness of the carried (assignment, prices) over the live subproblem.
// Valid after a Schedule/ScheduleDelta that did not stall; a testing hook —
// production paths never need it.
func (a *WarmAuction) VerifyState(tol float64) error {
	if a.solver == nil {
		return nil
	}
	return a.solver.VerifyState(tol)
}

// maybeCompact reclaims dead solver slots once they dominate, rewriting the
// live states to the compacted ids (the per-row caches hold the state
// pointers, so they stay coherent through the rewrite; a.sinkRow lists
// every live sink, aligned with a.prevSinkPeers).
func (a *WarmAuction) maybeCompact() {
	deadReqs, deadSinks := a.solver.Dead()
	if deadReqs+deadSinks <= compactThreshold ||
		deadReqs+deadSinks <= 2*(a.solver.NumRequests()+a.solver.NumSinks()) {
		return
	}
	reqMap, sinkMap := a.solver.Compact()
	for _, st := range a.reqRow {
		st.id = reqMap[st.id]
	}
	a.sinkPeer = a.sinkPeer[:0]
	for i, st := range a.sinkRow {
		st.id = sinkMap[st.id]
		a.noteSinkPeer(st.id, a.prevSinkPeers[i])
	}
}
