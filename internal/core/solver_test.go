package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/randx"
)

// solverModel mirrors a Solver's live subproblem so tests can cross-check it
// against the one-shot solvers: it tracks live solver ids and can densify
// them into a plain Problem.
type solverModel struct {
	t      *testing.T
	solver *Solver
	reqs   map[RequestID][]Edge
	sinks  map[SinkID]int
}

func newSolverModel(t *testing.T, eps float64) *solverModel {
	t.Helper()
	s, err := NewSolver(AuctionOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	return &solverModel{t: t, solver: s,
		reqs: make(map[RequestID][]Edge), sinks: make(map[SinkID]int)}
}

func (m *solverModel) apply(d ProblemDelta) *AppliedDelta {
	m.t.Helper()
	applied, err := m.solver.Apply(d)
	if err != nil {
		m.t.Fatal(err)
	}
	for _, r := range d.RemoveRequests {
		delete(m.reqs, r)
	}
	for _, u := range d.UpdateRequests {
		m.reqs[u.Request] = u.Edges
	}
	for _, t := range d.RemoveSinks {
		delete(m.sinks, t)
		for r, edges := range m.reqs {
			kept := edges[:0]
			for _, e := range edges {
				if e.Sink != t {
					kept = append(kept, e)
				}
			}
			m.reqs[r] = kept
		}
	}
	for _, c := range d.SetCapacities {
		m.sinks[c.Sink] = c.Capacity
	}
	for i, t := range applied.Sinks {
		m.sinks[t] = d.AddSinks[i]
	}
	for i, r := range applied.Requests {
		m.reqs[r] = d.AddRequests[i]
	}
	return applied
}

// densify builds the equivalent plain Problem plus the live-id orderings used
// to map between them (sorted for determinism).
func (m *solverModel) densify() (p *Problem, reqIDs []RequestID, sinkIdx map[SinkID]SinkID) {
	m.t.Helper()
	p = NewProblem()
	sinkIdx = make(map[SinkID]SinkID, len(m.sinks))
	for t := SinkID(0); int(t) < len(m.solver.caps); t++ {
		if capacity, live := m.sinks[t]; live {
			dense, err := p.AddSink(capacity)
			if err != nil {
				m.t.Fatal(err)
			}
			sinkIdx[t] = dense
		}
	}
	for r := RequestID(0); int(r) < len(m.solver.adj); r++ {
		edges, live := m.reqs[r]
		if !live {
			continue
		}
		dense := p.AddRequest()
		reqIDs = append(reqIDs, r)
		for _, e := range edges {
			if _, ok := sinkIdx[e.Sink]; !ok {
				continue // edge to a sink removed after the request was added
			}
			if err := p.AddEdge(dense, sinkIdx[e.Sink], e.Weight); err != nil {
				m.t.Fatal(err)
			}
		}
	}
	return p, reqIDs, sinkIdx
}

// exactWelfare solves the dense equivalent problem to optimality.
func (m *solverModel) exactWelfare() float64 {
	m.t.Helper()
	p, _, _ := m.densify()
	opt, err := SolveExact(p)
	if err != nil {
		m.t.Fatal(err)
	}
	return opt.Welfare(p)
}

// randomEdges draws a random admissible edge set over the live sinks.
func randomEdges(rng *randx.Source, sinks []SinkID, integerWeights bool) []Edge {
	var edges []Edge
	for _, t := range sinks {
		if rng.Float64() < 0.6 {
			var w float64
			if integerWeights {
				w = float64(rng.Intn(16) - 3)
			} else {
				w = rng.Range(-3, 12)
			}
			edges = append(edges, Edge{Sink: t, Weight: w})
		}
	}
	return edges
}

func (m *solverModel) liveSinks() []SinkID {
	var out []SinkID
	for t := SinkID(0); int(t) < len(m.solver.caps); t++ {
		if _, live := m.sinks[t]; live {
			out = append(out, t)
		}
	}
	return out
}

func (m *solverModel) liveReqs() []RequestID {
	var out []RequestID
	for r := RequestID(0); int(r) < len(m.solver.adj); r++ {
		if _, live := m.reqs[r]; live {
			out = append(out, r)
		}
	}
	return out
}

// churnStep mutates ~frac of the model: requests removed/updated/added, one
// sink removed/added, a few capacity changes — the slot-to-slot shape of a
// P2P swarm under churn.
func (m *solverModel) churnStep(rng *randx.Source, frac float64, integerWeights bool) {
	m.t.Helper()
	var d ProblemDelta
	for _, r := range m.liveReqs() {
		switch {
		case rng.Float64() < frac/2:
			d.RemoveRequests = append(d.RemoveRequests, r)
		case rng.Float64() < frac:
			d.UpdateRequests = append(d.UpdateRequests,
				RequestEdges{Request: r, Edges: randomEdges(rng, m.liveSinks(), integerWeights)})
		}
	}
	sinks := m.liveSinks()
	if len(sinks) > 2 && rng.Float64() < frac {
		d.RemoveSinks = append(d.RemoveSinks, sinks[rng.Intn(len(sinks))])
	}
	for _, t := range sinks {
		if len(d.RemoveSinks) == 1 && t == d.RemoveSinks[0] {
			continue
		}
		if rng.Float64() < frac/2 {
			d.SetCapacities = append(d.SetCapacities, SinkCapacity{Sink: t, Capacity: rng.Intn(4)})
		}
	}
	if rng.Float64() < frac {
		d.AddSinks = append(d.AddSinks, 1+rng.Intn(3))
	}
	m.apply(d)
	// New requests reference post-removal sinks: second phase, as WarmAuction
	// does.
	var d2 ProblemDelta
	n := rng.Intn(1 + int(frac*float64(len(m.reqs)+4)))
	for i := 0; i < n; i++ {
		d2.AddRequests = append(d2.AddRequests, randomEdges(rng, m.liveSinks(), integerWeights))
	}
	m.apply(d2)
}

// seedModel populates an empty model with a random instance.
func (m *solverModel) seed(rng *randx.Source, nReq, nSink int, integerWeights bool) {
	m.t.Helper()
	var sinksD ProblemDelta
	for i := 0; i < nSink; i++ {
		sinksD.AddSinks = append(sinksD.AddSinks, rng.Intn(4))
	}
	m.apply(sinksD)
	var reqD ProblemDelta
	for i := 0; i < nReq; i++ {
		reqD.AddRequests = append(reqD.AddRequests, randomEdges(rng, m.liveSinks(), integerWeights))
	}
	m.apply(reqD)
}

func TestSolverWarmCertificateUnderChurn(t *testing.T) {
	// Across a churn sequence, every warm Solve must end with a clean ε-CS
	// certificate and welfare within n·ε of the exact optimum — the same
	// guarantee a cold solve gives.
	const eps = 0.01
	rng := randx.New(11)
	m := newSolverModel(t, eps)
	m.seed(rng, 40, 8, false)
	for slot := 0; slot < 12; slot++ {
		if slot > 0 {
			m.churnStep(rng, 0.3, false)
		}
		if _, err := m.solver.Solve(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if err := m.solver.VerifyState(1e-9); err != nil {
			t.Fatalf("slot %d: certificate rejected: %v", slot, err)
		}
		got := m.solver.Welfare()
		opt := m.exactWelfare()
		bound := eps*float64(m.solver.NumRequests()) + 1e-9
		if got < opt-bound || got > opt+1e-9 {
			t.Fatalf("slot %d: warm welfare %v outside [opt−nε, opt] = [%v, %v]",
				slot, got, opt-bound, opt)
		}
	}
}

func TestSolverWarmEqualsColdWelfareIntegerWeights(t *testing.T) {
	// With integer weights and ε < 1/(n+1), both warm and cold solves are
	// exactly optimal (Theorem 1 via Bertsekas' ε-CS argument), so their
	// welfare is identical — the strongest warm == cold golden at this
	// level.
	rng := randx.New(23)
	m := newSolverModel(t, 1e-3)
	m.seed(rng, 30, 6, true)
	for slot := 0; slot < 10; slot++ {
		if slot > 0 {
			m.churnStep(rng, 0.35, true)
		}
		if _, err := m.solver.Solve(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		p, _, _ := m.densify()
		cold, err := SolveAuction(p, AuctionOptions{Epsilon: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		warmW, coldW := m.solver.Welfare(), cold.Assignment.Welfare(p)
		if math.Abs(warmW-coldW) > 1e-9 {
			t.Fatalf("slot %d: warm welfare %v != cold welfare %v", slot, warmW, coldW)
		}
		if optW := m.exactWelfare(); math.Abs(warmW-optW) > 1e-9 {
			t.Fatalf("slot %d: warm welfare %v != exact optimum %v", slot, warmW, optW)
		}
	}
}

func TestSolverRepairResellsStaleReserve(t *testing.T) {
	// r1 takes the single unit of sink B with a bid that prices λ_B above
	// r2's valuation, so r2 drops out. When r1 departs, the naive warm start
	// would leave B priced out of the market forever (λ_B ≈ 9, unsold — CS1
	// violated); the repair loop must reset the reserve and resell to r2.
	m := newSolverModel(t, 0.01)
	applied := m.apply(ProblemDelta{AddSinks: []int{1}})
	sinkB := applied.Sinks[0]
	reqs := m.apply(ProblemDelta{AddRequests: [][]Edge{
		{{Sink: sinkB, Weight: 9}},
		{{Sink: sinkB, Weight: 8}},
	}})
	r1, r2 := reqs.Requests[0], reqs.Requests[1]
	if _, err := m.solver.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := m.solver.SinkOf(r1); got != sinkB {
		t.Fatalf("r1 at %v, want sink B (%v)", got, sinkB)
	}
	if m.solver.SinkOf(r2) != Unassigned {
		t.Fatalf("r2 at %v, want priced out", m.solver.SinkOf(r2))
	}
	if lb := m.solver.Price(sinkB); lb < 8.5 {
		t.Fatalf("λ_B = %v after the bidding war, want ≈ 9", lb)
	}
	m.apply(ProblemDelta{RemoveRequests: []RequestID{r1}})
	res, err := m.solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairRounds == 0 {
		t.Fatal("expected a CS1 repair round for the stale reserve")
	}
	if got := m.solver.SinkOf(r2); got != sinkB {
		t.Fatalf("r2 at %v after repair, want sink B (%v)", got, sinkB)
	}
	if err := m.solver.VerifyState(1e-9); err != nil {
		t.Fatal(err)
	}
	if got := m.solver.Welfare(); math.Abs(got-8) > 1e-9 {
		t.Fatalf("welfare %v, want 8", got)
	}
}

func TestSolverEpsilonRescaling(t *testing.T) {
	// Coarse-to-fine ε across warm Solves: the carried state must be
	// revalidated so the final welfare meets the *tight* bound.
	rng := randx.New(31)
	m := newSolverModel(t, 2)
	m.seed(rng, 30, 6, false)
	if _, err := m.solver.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 0.05, 0.005} {
		if err := m.solver.SetEpsilon(eps); err != nil {
			t.Fatal(err)
		}
		if _, err := m.solver.Solve(); err != nil {
			t.Fatal(err)
		}
		if err := m.solver.VerifyState(1e-9); err != nil {
			t.Fatalf("ε=%v: %v", eps, err)
		}
	}
	got, opt := m.solver.Welfare(), m.exactWelfare()
	bound := 0.005*float64(m.solver.NumRequests()) + 1e-9
	if got < opt-bound {
		t.Fatalf("rescaled welfare %v below opt−nε = %v", got, opt-bound)
	}
}

func TestSolverCapacityShrinkEvicts(t *testing.T) {
	m := newSolverModel(t, 0.01)
	applied := m.apply(ProblemDelta{AddSinks: []int{3}})
	sink := applied.Sinks[0]
	m.apply(ProblemDelta{AddRequests: [][]Edge{
		{{Sink: sink, Weight: 5}},
		{{Sink: sink, Weight: 7}},
		{{Sink: sink, Weight: 9}},
	}})
	if _, err := m.solver.Solve(); err != nil {
		t.Fatal(err)
	}
	m.apply(ProblemDelta{SetCapacities: []SinkCapacity{{Sink: sink, Capacity: 1}}})
	if _, err := m.solver.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := m.solver.VerifyState(1e-9); err != nil {
		t.Fatal(err)
	}
	// Only the highest-value request keeps the unit.
	if got := m.solver.Welfare(); math.Abs(got-9) > 1e-9 {
		t.Fatalf("welfare after shrink = %v, want 9", got)
	}
	// Growing it back resells to everyone.
	m.apply(ProblemDelta{SetCapacities: []SinkCapacity{{Sink: sink, Capacity: 3}}})
	if _, err := m.solver.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := m.solver.Welfare(); math.Abs(got-21) > 1e-9 {
		t.Fatalf("welfare after regrow = %v, want 21", got)
	}
}

func TestSolverCompactPreservesState(t *testing.T) {
	rng := randx.New(43)
	m := newSolverModel(t, 0.01)
	m.seed(rng, 40, 8, false)
	for slot := 0; slot < 6; slot++ {
		m.churnStep(rng, 0.4, false)
		if _, err := m.solver.Solve(); err != nil {
			t.Fatal(err)
		}
	}
	before := m.solver.Welfare()
	deadReqs, deadSinks := m.solver.Dead()
	if deadReqs == 0 {
		t.Fatal("churn left no dead requests; test is vacuous")
	}
	reqMap, sinkMap := m.solver.Compact()
	if gotR, gotS := m.solver.Dead(); gotR != 0 || gotS != 0 {
		t.Fatalf("Dead() = (%d, %d) after Compact", gotR, gotS)
	}
	t.Logf("compacted away %d requests, %d sinks", deadReqs, deadSinks)
	// Rewrite the model's handles and confirm nothing observable changed.
	newReqs := make(map[RequestID][]Edge, len(m.reqs))
	for r, edges := range m.reqs {
		kept := edges[:0]
		for _, e := range edges {
			if nt, live := sinkMap[e.Sink]; live {
				kept = append(kept, Edge{Sink: nt, Weight: e.Weight})
			}
		}
		newReqs[reqMap[r]] = kept
	}
	newSinks := make(map[SinkID]int, len(m.sinks))
	for s, c := range m.sinks {
		newSinks[sinkMap[s]] = c
	}
	m.reqs, m.sinks = newReqs, newSinks
	if err := m.solver.VerifyState(1e-9); err != nil {
		t.Fatal(err)
	}
	if after := m.solver.Welfare(); math.Abs(after-before) > 1e-9 {
		t.Fatalf("welfare changed across Compact: %v → %v", before, after)
	}
	// And the solver keeps working incrementally.
	m.churnStep(rng, 0.3, false)
	if _, err := m.solver.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := m.solver.VerifyState(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSolverValidationErrors(t *testing.T) {
	m := newSolverModel(t, 0.01)
	applied := m.apply(ProblemDelta{AddSinks: []int{1}})
	sink := applied.Sinks[0]
	reqs := m.apply(ProblemDelta{AddRequests: [][]Edge{{{Sink: sink, Weight: 1}}}})
	cases := []ProblemDelta{
		{RemoveRequests: []RequestID{99}},
		{RemoveRequests: []RequestID{reqs.Requests[0], reqs.Requests[0]}},
		{RemoveSinks: []SinkID{99}},
		{SetCapacities: []SinkCapacity{{Sink: sink, Capacity: -1}}},
		{AddSinks: []int{-2}},
		{AddRequests: [][]Edge{{{Sink: 99, Weight: 1}}}},
		{AddRequests: [][]Edge{{{Sink: sink, Weight: math.NaN()}}}},
		{AddRequests: [][]Edge{{{Sink: sink, Weight: 1}, {Sink: sink, Weight: 2}}}},
		{UpdateRequests: []RequestEdges{{Request: 99}}},
		{RemoveSinks: []SinkID{sink}, AddRequests: [][]Edge{{{Sink: sink, Weight: 1}}}},
	}
	for i, d := range cases {
		if _, err := m.solver.Apply(d); err == nil {
			t.Errorf("case %d: invalid delta accepted", i)
		}
	}
	// The failed applies must not have mutated anything.
	if m.solver.NumRequests() != 1 || m.solver.NumSinks() != 1 {
		t.Fatalf("failed applies mutated state: %d requests, %d sinks",
			m.solver.NumRequests(), m.solver.NumSinks())
	}
}

func TestNewSolverRejectsBadOptions(t *testing.T) {
	for _, opts := range []AuctionOptions{
		{Epsilon: -1},
		{Epsilon: math.Inf(1)},
		{Epsilon: 0.01, MaxIterations: -5},
	} {
		if _, err := NewSolver(opts); err == nil {
			t.Errorf("NewSolver(%+v) accepted", opts)
		}
	}
	// A zero cap selects the default; a positive one is honored.
	for _, opts := range []AuctionOptions{{Epsilon: 0.01}, {Epsilon: 0.01, MaxIterations: 5}} {
		if _, err := NewSolver(opts); err != nil {
			t.Errorf("NewSolver(%+v): %v", opts, err)
		}
	}
}

// TestSolverLoadNeverWritesProblem: a loaded solver adopts the problem's
// capacities and edge slab. Deltas that remove requests (their edge arrays
// enter the recycling pool), add requests (which take those arrays back),
// update and shift edges and change capacities, and a Compact, must all
// leave the problem as it was — a reload still solves it identically.
func TestSolverLoadNeverWritesProblem(t *testing.T) {
	p := randomProblemLarge(randx.New(11), 200, 20)
	n := p.NumRequests()
	edges := make([][]Edge, n)
	for r := range edges {
		edges[r] = slices.Clone(p.Edges(RequestID(r)))
	}
	caps := slices.Clone(p.capacities)
	want, err := SolveAuction(p, AuctionOptions{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSolver(AuctionOptions{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s.Load(p)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	var d ProblemDelta
	for r := 0; r < n; r += 2 {
		d.RemoveRequests = append(d.RemoveRequests, RequestID(r))
		d.AddRequests = append(d.AddRequests, []Edge{{Sink: SinkID(r % 20), Weight: 99}})
	}
	d.UpdateRequests = []RequestEdges{{Request: 1, Edges: []Edge{{Sink: 0, Weight: 98}}}}
	d.ShiftValues = []ValueShift{{Request: 3, Delta: 5}}
	d.SetCapacities = []SinkCapacity{{Sink: 0, Capacity: 97}}
	if _, err := s.Apply(d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyState(1e-9); err != nil {
		t.Fatal(err)
	}
	s.Compact()
	if _, err := s.Apply(ProblemDelta{ShiftValues: []ValueShift{{Request: 0, Delta: -1}}}); err != nil {
		t.Fatal(err)
	}

	for r, es := range edges {
		if got := p.Edges(RequestID(r)); !slices.Equal(got, es) {
			t.Fatalf("request %d edges = %v after deltas, want %v", r, got, es)
		}
	}
	if !slices.Equal(p.capacities, caps) {
		t.Fatalf("capacities = %v after deltas, want %v", p.capacities, caps)
	}
	s.Load(p)
	got, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Assignment.SinkOf, want.Assignment.SinkOf) || !slices.Equal(got.Prices, want.Prices) ||
		got.Bids != want.Bids || got.Iterations != want.Iterations {
		t.Fatal("reloaded solve differs from a fresh SolveAuction")
	}
}
