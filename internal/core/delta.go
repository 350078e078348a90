package core

// This file defines the delta vocabulary of the incremental solving layer
// (solver.go): between consecutive scheduling slots the transportation
// problem changes only marginally — a few peers churn, some chunks age out,
// capacities shift — and a ProblemDelta describes exactly that marginal
// change, so a Solver can re-optimize from its previous prices and partial
// assignment instead of rebuilding a Problem and solving from λ = 0.

// SinkCapacity sets sink Sink's capacity to Capacity (a B(u) change between
// slots: the uploader's per-slot budget moved).
type SinkCapacity struct {
	Sink     SinkID
	Capacity int
}

// RequestEdges replaces request Request's admissible edge set with Edges (a
// changed neighbor set or changed per-edge costs).
type RequestEdges struct {
	Request RequestID
	Edges   []Edge
}

// ValueShift adds Delta to every edge weight of request Request — the shape
// of a deadline re-valuation: v_c(d) changed, the network costs did not, so
// all weights v − w move together. A shift preserves the request's
// preference order among sinks, which lets the solver keep its assignment,
// stored bid and every price untouched (the closing ε-CS sweep re-checks
// the one thing a shift can break, the comparison against the stay-
// unassigned floor). Orders of magnitude cheaper than an equivalent
// RequestEdges update.
type ValueShift struct {
	Request RequestID
	Delta   float64
}

// ProblemDelta is one slot-to-slot change set for a Solver. Operations are
// applied in a fixed order: RemoveRequests, UpdateRequests, ShiftValues,
// RemoveSinks, SetCapacities, AddSinks, AddRequests. Edge lists in UpdateRequests and
// AddRequests are validated against the sinks alive when that phase runs, so
// edges to sinks minted by AddSinks of the *same* delta cannot be expressed —
// apply the sink additions in a first delta, collect the minted SinkIDs from
// the AppliedDelta, and reference them in a second (Solver.Apply is cheap and
// may be called any number of times between Solves; sched.WarmAuction does
// exactly this two-phase dance).
type ProblemDelta struct {
	// RemoveRequests withdraws requests (served, expired or departed). Their
	// RequestIDs become dead and are never reused.
	RemoveRequests []RequestID
	// UpdateRequests re-declares the edge sets of existing requests. The
	// request is unassigned and re-enters the bidding queue.
	UpdateRequests []RequestEdges
	// ShiftValues adds a per-request constant to all edge weights (a
	// re-valuation). The request keeps its assignment and queue state.
	ShiftValues []ValueShift
	// RemoveSinks withdraws uploaders (departed peers). Requests they served
	// re-enter the queue; their SinkIDs become dead and are never reused.
	RemoveSinks []SinkID
	// SetCapacities changes the capacities of existing sinks. Shrinking below
	// the current load evicts the lowest accepted bids back into the queue.
	SetCapacities []SinkCapacity
	// AddSinks registers new uploaders with the given capacities.
	AddSinks []int
	// AddRequests registers new unit-demand requests with the given edge
	// sets.
	AddRequests [][]Edge
}

// AppliedDelta reports the ids minted by one Solver.Apply call, in the order
// the corresponding AddSinks / AddRequests entries appeared.
type AppliedDelta struct {
	Sinks    []SinkID
	Requests []RequestID
}
