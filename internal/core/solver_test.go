package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/randx"
)

// randomEdges draws a random admissible edge set over the given sinks.
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

// seededProblem builds a random instance of nSink sinks with capacities in
// 0..3 and nReq requests, each with an edge to about 60 % of the sinks.
func seededProblem(t *testing.T, rng *randx.Source, nReq, nSink int, integerWeights bool) *Problem {
	t.Helper()
	p := NewProblem()
	sinks := make([]SinkID, nSink)
	for i := range sinks {
		s, err := p.AddSink(rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		sinks[i] = s
	}
	for range nReq {
		r := p.AddRequest()
		for _, e := range randomEdges(rng, sinks, integerWeights) {
			if err := p.AddEdge(r, e.Sink, e.Weight); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// sameSolve reports whether two solves are bit-equal on everything a caller
// can observe: assignment, price bits and the bidding diagnostics.
func sameSolve(a, b *AuctionResult) bool {
	return slices.Equal(a.Assignment.SinkOf, b.Assignment.SinkOf) && slices.Equal(a.Prices, b.Prices) &&
		a.Bids == b.Bids && a.Iterations == b.Iterations && a.Evictions == b.Evictions &&
		a.Stalled == b.Stalled
}

// TestSolverReloadMatchesSolveAuction: one Solver, reloaded across a
// sequence of random problems that grow and shrink (so its kept buffers are
// both reused and outgrown), must solve each exactly as a fresh
// SolveAuction does, with a valid ε-CS certificate; with integer weights
// and ε < 1/(n+1) the welfare is the exact optimum.
func TestSolverReloadMatchesSolveAuction(t *testing.T) {
	rng := randx.New(11)
	s, err := NewSolver(AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := range 40 {
		integer := trial%2 == 1
		p := seededProblem(t, rng, rng.Intn(60), 1+rng.Intn(12), integer)
		eps := 0.01
		if integer {
			eps = 1.0 / float64(p.NumRequests()+2)
		}
		if err := s.SetEpsilon(eps); err != nil {
			t.Fatal(err)
		}
		s.Load(p)
		got, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveAuction(p, AuctionOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolve(got, want) {
			t.Fatalf("trial %d: reloaded solve differs from a fresh SolveAuction", trial)
		}
		if err := VerifyEpsilonCS(p, got.Assignment, got.Prices, eps, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if integer {
			opt, err := SolveExact(p)
			if err != nil {
				t.Fatal(err)
			}
			if gw, ow := got.Assignment.Welfare(p), opt.Welfare(p); math.Abs(gw-ow) > 1e-9 {
				t.Fatalf("trial %d: welfare %v, exact optimum %v", trial, gw, ow)
			}
		}
	}
}

// TestSolverEpsilonRescaling: SetEpsilon between Loads takes effect on the
// next solve — a solver that solved coarse and is then tightened and
// reloaded meets the tight n·ε bound, bit-equal to a fresh solve at that ε.
func TestSolverEpsilonRescaling(t *testing.T) {
	rng := randx.New(31)
	p := seededProblem(t, rng, 30, 6, false)
	s, err := NewSolver(AuctionOptions{Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Load(p)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	opt, err := SolveExact(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.5, 0.05, 0.005} {
		if err := s.SetEpsilon(eps); err != nil {
			t.Fatal(err)
		}
		s.Load(p)
		got, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveAuction(p, AuctionOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolve(got, want) {
			t.Fatalf("ε=%v: rescaled solve differs from a fresh SolveAuction", eps)
		}
		bound := eps*float64(p.NumRequests()) + 1e-9
		if w := got.Assignment.Welfare(p); w < opt.Welfare(p)-bound {
			t.Fatalf("ε=%v: welfare %v below opt−nε = %v", eps, w, opt.Welfare(p)-bound)
		}
	}
}

// TestSolverValidationErrors: SetEpsilon rejects what NewSolver rejects and
// leaves the bid increment in force unchanged.
func TestSolverValidationErrors(t *testing.T) {
	s, err := NewSolver(AuctionOptions{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.SetEpsilon(eps); err == nil {
			t.Errorf("SetEpsilon(%v) accepted", eps)
		}
	}
	if s.opts.Epsilon != 0.01 {
		t.Fatalf("rejected SetEpsilon calls changed ε to %v", s.opts.Epsilon)
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
// capacities and edge slab. Solving it, with every shared-buffer flavor,
// and then loading and solving a different problem into the same solver
// must leave the problem as it was — a reload still solves it identically.
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
	s.Load(p)
	if _, err := s.SolveShared(); err != nil {
		t.Fatal(err)
	}
	s.Load(randomProblemLarge(randx.New(12), 300, 30))
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}

	for r, es := range edges {
		if got := p.Edges(RequestID(r)); !slices.Equal(got, es) {
			t.Fatalf("request %d edges = %v after solves, want %v", r, got, es)
		}
	}
	if !slices.Equal(p.capacities, caps) {
		t.Fatalf("capacities = %v after solves, want %v", p.capacities, caps)
	}
	s.Load(p)
	got, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolve(got, want) {
		t.Fatal("reloaded solve differs from a fresh SolveAuction")
	}
}
