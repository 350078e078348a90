package main

import (
	"fmt"

	"repro/internal/isp"
	"repro/internal/sched"
)

// Theorem 2 of the paper: the auction's assignment is within n·ε of the
// optimal social welfare. The benchmark checks it two ways, both outside
// the timed work:
//
//   - against sched.Exact, the min-cost-flow optimum, on instances small
//     enough for it (the daemon's ticks);
//   - against the dual objective at the auction's own prices λ, on every
//     sampled round. By weak duality D(λ) ≥ OPT for any λ ≥ 0, so
//     welfare ≥ D(λ) − n·ε implies welfare ≥ OPT − n·ε. The sim rounds
//     (50–70k requests) are far beyond the exact solver, whose successive
//     shortest paths take minutes at that size.

// dualBound evaluates the dual objective of problem (1) at the uploader
// prices: Σ_u λ_u·B(u) + Σ_r max(0, max_c (v_r − w_c − λ_c)).
func dualBound(in *sched.Instance, prices map[isp.PeerID]float64) (float64, error) {
	total := 0.0
	for _, u := range in.Uploaders {
		l := prices[u.Peer]
		if l < 0 {
			return 0, fmt.Errorf("negative price λ=%v for uploader %d", l, u.Peer)
		}
		total += l * float64(u.Capacity)
	}
	for i := range in.Requests {
		r := &in.Requests[i]
		eta := 0.0
		for _, c := range r.Candidates {
			if u := r.Value - c.Cost - prices[c.Peer]; u > eta {
				eta = u
			}
		}
		total += eta
	}
	return total, nil
}

// exactWelfare is the optimum of the instance by sched.Exact.
func exactWelfare(in *sched.Instance) (float64, error) {
	res, err := (&sched.Exact{}).Schedule(in)
	if err != nil {
		return 0, err
	}
	return in.Welfare(res.Grants)
}

// welfareGap checks welfare ≥ bound − n·ε and returns the shortfall
// bound − welfare as a share of the n·ε band.
func welfareGap(what string, welfare, bound float64, n int, eps float64) (float64, error) {
	band := eps*float64(n) + 1e-9
	if welfare < bound-band {
		return 0, fmt.Errorf("%s: welfare %.6f < %.6f − n·ε (n=%d, ε=%g): Theorem 2 violated",
			what, welfare, bound, n, eps)
	}
	return (bound - welfare) / band, nil
}

// thm2Tally collects the Theorem 2 checks of one run for the notes.
type thm2Tally struct {
	dual, exact       int
	worstDual, worstX float64
}

func (t *thm2Tally) String() string {
	return fmt.Sprintf("theorem 2: %d rounds checked against the dual bound (largest gap %.3f of n·ε), %d against sched.Exact (largest gap %.3f of n·ε)",
		t.dual, t.worstDual, t.exact, t.worstX)
}

// checkDual runs the dual-bound check on one round.
func (t *thm2Tally) checkDual(what string, in *sched.Instance, prices map[isp.PeerID]float64, welfare, eps float64) error {
	bound, err := dualBound(in, prices)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	gap, err := welfareGap(what+" (dual bound)", welfare, bound, len(in.Requests), eps)
	if err != nil {
		return err
	}
	t.dual++
	t.worstDual = max(t.worstDual, gap)
	return nil
}

// checkExact runs the exact-optimum check on one round.
func (t *thm2Tally) checkExact(what string, in *sched.Instance, welfare, eps float64) error {
	opt, err := exactWelfare(in)
	if err != nil {
		return fmt.Errorf("%s: exact solve: %w", what, err)
	}
	gap, err := welfareGap(what+" (exact)", welfare, opt, len(in.Requests), eps)
	if err != nil {
		return err
	}
	t.exact++
	t.worstX = max(t.worstX, gap)
	return nil
}
