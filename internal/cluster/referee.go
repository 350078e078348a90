package cluster

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// VerifySharded is the golden referee: it checks a sharded slot result
// against the monolithic solve it replaces.
//
// The decomposition is exact — no admissible edge crosses shards, so the
// union of per-shard ε-CS certificates is an ε-CS certificate for the full
// problem — and the sharded welfare must match a monolithic cold auction's
// within the shared certificate band n·ε (bit-equal with cold shards, since
// each replays its part of the monolithic solve;
// TestShardedColdEqualsMonolithic pins that).
func VerifySharded(in *sched.Instance, res *sched.Result, epsilon float64) error {
	if err := in.Validate(res.Grants); err != nil {
		return fmt.Errorf("cluster: sharded grants infeasible: %w", err)
	}
	got, err := in.Welfare(res.Grants)
	if err != nil {
		return err
	}
	mono, err := (&sched.Auction{Epsilon: epsilon}).Schedule(in)
	if err != nil {
		return fmt.Errorf("cluster: monolithic referee solve: %w", err)
	}
	want, err := in.Welfare(mono.Grants)
	if err != nil {
		return err
	}
	band := epsilon*float64(len(in.Requests)) + 1e-9
	if diff := math.Abs(got - want); diff > band {
		return fmt.Errorf("cluster: sharded welfare %v vs monolithic %v — Δ=%g exceeds the n·ε certificate band %g",
			got, want, diff, band)
	}
	return nil
}
