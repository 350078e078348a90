package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/randx"
)

// solveBy runs a fresh ε-auction on p with the given deadline.
func solveBy(t *testing.T, p *Problem, eps float64, deadline time.Time) *AuctionResult {
	t.Helper()
	s, err := NewSolver(AuctionOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	s.SetDeadline(deadline)
	s.Load(p)
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkCertifiedGap asserts what every solve, stopped or not, must hold: a
// feasible assignment, no unassigned request left with a positive edge to a
// sink that has room, and a reported gap equal to Dual(λ) − W recomputed
// from scratch and non-negative (weak duality), both up to float noise.
func checkCertifiedGap(t *testing.T, p *Problem, res *AuctionResult, label string) {
	t.Helper()
	a := res.Assignment
	if err := a.Verify(p); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	load := make([]int, p.NumSinks())
	for _, s := range a.SinkOf {
		if s != Unassigned {
			load[s]++
		}
	}
	for r, s := range a.SinkOf {
		if s != Unassigned {
			continue
		}
		for _, e := range p.Edges(RequestID(r)) {
			if e.Weight > 0 && load[e.Sink] < p.Capacity(e.Sink) {
				t.Fatalf("%s: request %d unassigned beside sink %d with room (w=%v)", label, r, e.Sink, e.Weight)
			}
		}
	}
	dual := DualObjective(p, res.Prices)
	want := dual - a.Welfare(p)
	tol := 1e-9 * max(1, math.Abs(dual))
	if math.Abs(res.Gap-want) > tol {
		t.Fatalf("%s: reported gap %v, recomputed Dual − W = %v", label, res.Gap, want)
	}
	if res.Gap < -tol {
		t.Fatalf("%s: negative gap %v breaks weak duality", label, res.Gap)
	}
}

// TestStoppedSolveCertifiesGap solves 200 seeded problems with no deadline,
// with a deadline already past, and with the clock stubbed so the deadline
// falls at a deadline check in mid-solve. Every solve must certify its gap.
// Finished solves are within n·ε. A far-future deadline changes nothing, bit
// for bit. A stopped solve reports Stopped and has filled spare capacity
// (checkCertifiedGap's room check).
func TestStoppedSolveCertifiesGap(t *testing.T) {
	defer func(clock func() time.Time) { now = clock }(now)
	const eps = 0.01
	rng := randx.New(23)
	midSolve := 0
	for i := range 200 {
		p := seededProblem(t, rng, 20+rng.Intn(1500), 3+rng.Intn(30), i%2 == 0)
		n := p.NumRequests()

		free := solveBy(t, p, eps, time.Time{})
		checkCertifiedGap(t, p, free, "no deadline")
		if free.Stopped || free.Gap > float64(n)*eps+1e-9 {
			t.Fatalf("instance %d: finished solve stopped=%v with gap %v > n·ε = %v",
				i, free.Stopped, free.Gap, float64(n)*eps)
		}
		far := solveBy(t, p, eps, time.Now().Add(time.Hour))
		if !sameSolve(free, far) || far.Stopped || math.Float64bits(far.Gap) != math.Float64bits(free.Gap) {
			t.Fatalf("instance %d: a far deadline changed the solve", i)
		}

		past := solveBy(t, p, eps, time.Now().Add(-time.Second))
		checkCertifiedGap(t, p, past, "past deadline")
		if !past.Stopped || past.Bids != 0 {
			t.Fatalf("instance %d: a past deadline gave stopped=%v after %d bids", i, past.Stopped, past.Bids)
		}

		// The stubbed clock ticks once per read, so the deadline falls on
		// the k-th check, that is at iteration (k−1)·deadlineEvery.
		checks := (free.Iterations + deadlineEvery - 1) / deadlineEvery
		if checks < 2 {
			continue
		}
		k := 2 + rng.Intn(checks-1)
		base, reads := time.Now(), 0
		now = func() time.Time {
			reads++
			return base.Add(time.Duration(reads))
		}
		cut := solveBy(t, p, eps, base.Add(time.Duration(k)))
		now = time.Now
		checkCertifiedGap(t, p, cut, "mid-solve deadline")
		if !cut.Stopped || cut.Iterations != (k-1)*deadlineEvery {
			t.Fatalf("instance %d: deadline at check %d stopped=%v after %d iterations",
				i, k, cut.Stopped, cut.Iterations)
		}
		midSolve++
	}
	t.Logf("%d of 200 solves cut mid-solve", midSolve)
	if midSolve < 50 {
		t.Fatalf("only %d of 200 solves were cut mid-solve; the instances are too small", midSolve)
	}
}
