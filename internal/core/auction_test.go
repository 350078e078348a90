package core

import (
	"math"
	"runtime/debug"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

// randomProblem builds a random transportation instance. When integerWeights
// is set, weights are drawn from {-3,...,12} so that ε < 1/(n+1) guarantees
// exact optimality.
func randomProblem(rng *randx.Source, maxReq, maxSink int, integerWeights bool) *Problem {
	p := NewProblem()
	nSink := 1 + rng.Intn(maxSink)
	nReq := 1 + rng.Intn(maxReq)
	for s := 0; s < nSink; s++ {
		if _, err := p.AddSink(rng.Intn(3)); err != nil {
			panic(err)
		}
	}
	for r := 0; r < nReq; r++ {
		req := p.AddRequest()
		for s := 0; s < nSink; s++ {
			if rng.Float64() < 0.7 {
				var w float64
				if integerWeights {
					w = float64(rng.Intn(16) - 3)
				} else {
					w = rng.Range(-3, 12)
				}
				if err := p.AddEdge(req, SinkID(s), w); err != nil {
					panic(err)
				}
			}
		}
	}
	return p
}

// randomProblemLarge builds a big instance without the small-instance caps of
// randomProblem.
func randomProblemLarge(rng *randx.Source, requests, sinks int) *Problem {
	p := NewProblem()
	for s := 0; s < sinks; s++ {
		if _, err := p.AddSink(1 + rng.Intn(8)); err != nil {
			panic(err)
		}
	}
	for r := 0; r < requests; r++ {
		req := p.AddRequest()
		degree := 2 + rng.Intn(12)
		for k := 0; k < degree; k++ {
			s := SinkID(rng.Intn(sinks))
			// Ignore duplicate-edge errors from repeated sink draws.
			_ = p.AddEdge(req, s, rng.Range(-1, 8))
		}
	}
	return p
}

func solveOrFatal(t *testing.T, p *Problem, opts AuctionOptions) *AuctionResult {
	t.Helper()
	res, err := SolveAuction(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAuctionTinyByHand(t *testing.T) {
	// Two requests compete for one unit at a good sink; the loser should
	// settle for the lesser sink.
	p := NewProblem()
	good, _ := p.AddSink(1)
	poor, _ := p.AddSink(1)
	rA := p.AddRequest()
	rB := p.AddRequest()
	if err := p.AddEdge(rA, good, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(rA, poor, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(rB, good, 9); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(rB, poor, 8); err != nil {
		t.Fatal(err)
	}
	res := solveOrFatal(t, p, AuctionOptions{Epsilon: 0.01})
	// Optimal: A→good (10), B→poor (8) = 18.
	if got := res.Assignment.Welfare(p); math.Abs(got-18) > 1e-9 {
		t.Fatalf("welfare = %v, want 18 (assignment %v)", got, res.Assignment.SinkOf)
	}
	if res.Assignment.SinkOf[rA] != good || res.Assignment.SinkOf[rB] != poor {
		t.Fatalf("assignment = %v", res.Assignment.SinkOf)
	}
}

func TestAuctionDropsNegativeUtility(t *testing.T) {
	p := NewProblem()
	s, _ := p.AddSink(5)
	r := p.AddRequest()
	if err := p.AddEdge(r, s, -2); err != nil {
		t.Fatal(err)
	}
	res := solveOrFatal(t, p, AuctionOptions{Epsilon: 0.01})
	if res.Assignment.SinkOf[r] != Unassigned {
		t.Fatal("negative-utility request should stay unassigned")
	}
	if res.Assignment.Welfare(p) != 0 {
		t.Fatal("welfare should be 0")
	}
}

func TestAuctionZeroCapacitySink(t *testing.T) {
	p := NewProblem()
	s0, _ := p.AddSink(0)
	s1, _ := p.AddSink(1)
	r := p.AddRequest()
	if err := p.AddEdge(r, s0, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r, s1, 1); err != nil {
		t.Fatal(err)
	}
	res := solveOrFatal(t, p, AuctionOptions{Epsilon: 0.01})
	if res.Assignment.SinkOf[r] != s1 {
		t.Fatalf("request should land on the non-empty sink, got %v", res.Assignment.SinkOf[r])
	}
}

func TestAuctionEmptyProblem(t *testing.T) {
	p := NewProblem()
	res := solveOrFatal(t, p, AuctionOptions{Epsilon: 0.01})
	if len(res.Prices) != 0 || res.Assignment.Assigned() != 0 {
		t.Fatal("empty problem should yield empty result")
	}
}

func TestAuctionRejectsBadOptions(t *testing.T) {
	p := NewProblem()
	if _, err := SolveAuction(p, AuctionOptions{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should error")
	}
	if _, err := SolveAuction(p, AuctionOptions{Epsilon: math.NaN()}); err == nil {
		t.Error("NaN epsilon should error")
	}
	if _, err := SolveAuction(p, AuctionOptions{MaxIterations: -5}); err == nil {
		t.Error("negative iteration cap should error")
	}
}

func TestAuctionMatchesBruteForce(t *testing.T) {
	rng := randx.New(101)
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 7, 4, true)
		bf, err := SolveBruteForce(p)
		if err != nil {
			t.Fatal(err)
		}
		want := bf.Welfare(p)
		eps := 1.0 / float64(p.NumRequests()+2)
		res, err := SolveAuction(p, AuctionOptions{Epsilon: eps})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := res.Assignment.Verify(p); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		got := res.Assignment.Welfare(p)
		// Integer weights + ε < 1/(n+1) ⇒ exactly optimal.
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: auction welfare %v != optimal %v\nassignment=%v",
				trial, got, want, res.Assignment.SinkOf)
		}
	}
}

func TestAuctionEpsilonCSProperty(t *testing.T) {
	rng := randx.New(202)
	check := func(seed uint32) bool {
		local := randx.New(uint64(seed) ^ rng.Uint64())
		p := randomProblem(local, 12, 5, false)
		eps := 0.05
		res, err := SolveAuction(p, AuctionOptions{Epsilon: eps})
		if err != nil {
			return false
		}
		return VerifyEpsilonCS(p, res.Assignment, res.Prices, eps, 1e-9) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAuctionDualityGapBound(t *testing.T) {
	// Weak duality: dual(λ) ≥ optimal ≥ auction welfare ≥ dual − n·ε.
	rng := randx.New(303)
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 15, 6, false)
		eps := 0.05
		res, err := SolveAuction(p, AuctionOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		primal := res.Assignment.Welfare(p)
		dual := DualObjective(p, res.Prices)
		if primal > dual+1e-9 {
			t.Fatalf("trial %d: primal %v exceeds dual %v (weak duality broken)",
				trial, primal, dual)
		}
		slack := float64(p.NumRequests()) * eps
		if dual-primal > slack+1e-9 {
			t.Fatalf("trial %d: duality gap %v exceeds n·ε = %v", trial, dual-primal, slack)
		}
	}
}

func TestAuctionPaperLiteralEpsilonZero(t *testing.T) {
	// ε=0 (the paper's bid rule). Generic real-valued weights have no ties,
	// so the auction should terminate at the exact optimum on most random
	// instances; stalls are permitted but must still be feasible.
	rng := randx.New(404)
	stalls := 0
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 6, 4, false)
		res, err := SolveAuction(p, AuctionOptions{Epsilon: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Assignment.Verify(p); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		if res.Stalled {
			stalls++
			continue
		}
		bf, err := SolveBruteForce(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Assignment.Welfare(p), bf.Welfare(p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: ε=0 welfare %v != optimal %v", trial, got, want)
		}
	}
	if stalls > 20 {
		t.Errorf("ε=0 stalled on %d/200 generic instances — expected rare ties", stalls)
	}
}

func TestAuctionPricesNonNegativeProperty(t *testing.T) {
	rng := randx.New(505)
	check := func(seed uint32) bool {
		local := randx.New(uint64(seed) ^ rng.Uint64())
		p := randomProblem(local, 10, 5, false)
		res, err := SolveAuction(p, AuctionOptions{Epsilon: 0.1})
		if err != nil {
			return false
		}
		for _, lambda := range res.Prices {
			if lambda < 0 {
				return false
			}
		}
		return res.Assignment.Verify(p) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAuctionBeatsGreedy(t *testing.T) {
	// The auction (near-optimal) should never do meaningfully worse than the
	// greedy heuristic.
	rng := randx.New(606)
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 15, 6, false)
		eps := 0.01
		res, err := SolveAuction(p, AuctionOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		greedy := SolveGreedy(p)
		if err := greedy.Verify(p); err != nil {
			t.Fatalf("greedy infeasible: %v", err)
		}
		slack := float64(p.NumRequests()) * eps
		if res.Assignment.Welfare(p) < greedy.Welfare(p)-slack-1e-9 {
			t.Fatalf("trial %d: auction %v < greedy %v - n·ε",
				trial, res.Assignment.Welfare(p), greedy.Welfare(p))
		}
	}
}

func TestAuctionCapacitySaturation(t *testing.T) {
	// More demand than capacity: every unit of the unique sink must be sold
	// to the highest-value requests.
	p := NewProblem()
	s, _ := p.AddSink(2)
	weights := []float64{5, 9, 7, 3}
	for _, w := range weights {
		r := p.AddRequest()
		if err := p.AddEdge(r, s, w); err != nil {
			t.Fatal(err)
		}
	}
	res := solveOrFatal(t, p, AuctionOptions{Epsilon: 0.01})
	if got := res.Assignment.Welfare(p); math.Abs(got-16) > 4*0.01 {
		t.Fatalf("welfare = %v, want ≈ 16 (9+7)", got)
	}
	if res.Assignment.SinkOf[1] != s || res.Assignment.SinkOf[2] != s {
		t.Fatalf("highest bidders should win: %v", res.Assignment.SinkOf)
	}
	// CS1: saturated sink may carry a positive price; losers' values ≥ price.
	if res.Prices[s] <= 0 {
		t.Fatalf("contested sink price = %v, want > 0", res.Prices[s])
	}
}

func TestAuctionStatsPopulated(t *testing.T) {
	rng := randx.New(707)
	p := randomProblem(rng, 10, 4, false)
	res := solveOrFatal(t, p, AuctionOptions{Epsilon: 0.05})
	if res.Iterations == 0 || res.Bids == 0 {
		t.Fatalf("stats not populated: %+v", res)
	}
}

func TestAuctionMaxIterations(t *testing.T) {
	// Three identical requests fight over two equally attractive units:
	// best − second is 0 every round, so prices creep by ε per bid. With a
	// tiny ε the war is long and the iteration cap must fire rather than
	// hang.
	p := NewProblem()
	s0, _ := p.AddSink(1)
	s1, _ := p.AddSink(1)
	for i := 0; i < 3; i++ {
		r := p.AddRequest()
		if err := p.AddEdge(r, s0, 100); err != nil {
			t.Fatal(err)
		}
		if err := p.AddEdge(r, s1, 100); err != nil {
			t.Fatal(err)
		}
	}
	_, err := SolveAuction(p, AuctionOptions{Epsilon: 1e-9, MaxIterations: 50})
	if err == nil {
		t.Fatal("expected iteration-cap error")
	}
}

func TestDualObjectiveHandComputed(t *testing.T) {
	p := NewProblem()
	s0, _ := p.AddSink(2)
	s1, _ := p.AddSink(1)
	r0 := p.AddRequest()
	r1 := p.AddRequest()
	if err := p.AddEdge(r0, s0, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r1, s1, 3); err != nil {
		t.Fatal(err)
	}
	prices := []float64{1, 0.5}
	// λ·B = 1*2 + 0.5*1 = 2.5; η0 = max(0, 4-1) = 3; η1 = max(0, 3-0.5) = 2.5.
	if got, want := DualObjective(p, prices), 8.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("dual objective = %v, want %v", got, want)
	}
}

func TestVerifyEpsilonCSRejectsBadCertificates(t *testing.T) {
	p := NewProblem()
	s0, _ := p.AddSink(1)
	s1, _ := p.AddSink(1)
	r0 := p.AddRequest()
	if err := p.AddEdge(r0, s0, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r0, s1, 1); err != nil {
		t.Fatal(err)
	}

	// CS1: positive price on an unsaturated sink.
	a := NewAssignment(1)
	a.SinkOf[r0] = s0
	if err := VerifyEpsilonCS(p, a, []float64{0, 5}, 0.01, 1e-9); err == nil {
		t.Error("CS1 violation not caught")
	}
	// CS2: assigned to a sink far worse than best.
	b := NewAssignment(1)
	b.SinkOf[r0] = s1
	if err := VerifyEpsilonCS(p, b, []float64{0, 0}, 0.01, 1e-9); err == nil {
		t.Error("CS2 violation not caught")
	}
	// CS3: profitable request left unassigned.
	c := NewAssignment(1)
	if err := VerifyEpsilonCS(p, c, []float64{0, 0}, 0.01, 1e-9); err == nil {
		t.Error("CS3 violation not caught")
	}
	// Wrong price vector length.
	if err := VerifyEpsilonCS(p, a, []float64{0}, 0.01, 1e-9); err == nil {
		t.Error("price length mismatch not caught")
	}
	// A valid certificate passes.
	good := NewAssignment(1)
	good.SinkOf[r0] = s0
	if err := VerifyEpsilonCS(p, good, []float64{0, 0}, 0.01, 1e-9); err != nil {
		t.Errorf("valid certificate rejected: %v", err)
	}
}

// TestSolveAuctionAllocs pins the cold solve's allocation count: the
// loaded Solver's per-sink and per-request arrays are windows of three
// slabs, the sinks' bid books windows of one slab sized from the
// in-degrees, the request queue never grows, and the result takes over the
// solver's assignment and prices, so solving 10 sinks costs exactly as many
// allocations as 1 000, however long either bidding war runs: 10 measured,
// with or without the race detector. The collector is paused
// while counting, so allocations the runtime makes during a GC cycle are
// not charged to the solve.
func TestSolveAuctionAllocs(t *testing.T) {
	const bound = 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, sinks := range []int{10, 1000} {
		p := randomProblemLarge(randx.New(uint64(sinks)), 8*sinks, sinks)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := SolveAuction(p, AuctionOptions{Epsilon: 0.01}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > bound {
		t.Fatalf("SolveAuction allocs at 10 / 1000 sinks = %v / %v, want equal and <= %d",
			counts[0], counts[1], bound)
	}
}
