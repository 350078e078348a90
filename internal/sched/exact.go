package sched

import (
	"fmt"

	"repro/internal/core"
)

// Exact schedules slots with the exact min-cost-flow solver: the
// welfare-optimal assignment the auction approaches within n·ε (Theorem 2).
// It is the ground-truth upper bound for scenario comparisons — slower than
// the auction and without market prices, so Payments stay zero.
type Exact struct{}

var _ Scheduler = (*Exact)(nil)

// Name implements Scheduler.
func (e *Exact) Name() string { return "exact" }

// Schedule implements Scheduler by translating the instance to a
// transportation problem and solving it to optimality.
func (e *Exact) Schedule(in *Instance) (*Result, error) {
	p, err := buildProblem(in)
	if err != nil {
		return nil, fmt.Errorf("exact schedule: %w", err)
	}
	a, err := core.SolveExact(p)
	if err != nil {
		return nil, fmt.Errorf("exact schedule: %w", err)
	}
	return &Result{Grants: grantsOf(in, a)}, nil
}
