package sched

import "sort"

// Greedy is the bounded degradation fallback: one value-ordered pass where
// each request takes its best-margin candidate with remaining capacity. No
// prices, no ε-CS certificate — it trades the auction's optimality for a hard
// O(R log R + R·deg) bound, which is what the daemon needs when auction
// solves keep overrunning their wall-clock deadline. Deterministic: ties break on
// request index, then on candidate list order.
type Greedy struct{}

// Name identifies the fallback in stats and logs.
func (Greedy) Name() string { return "greedy" }

// Schedule runs the single greedy pass.
func (Greedy) Schedule(in *Instance) (*Result, error) {
	order := make([]int, len(in.Requests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Requests[order[a]].Value > in.Requests[order[b]].Value
	})
	remaining := make([]int, len(in.Uploaders))
	for i := range in.Uploaders {
		remaining[i] = in.Uploaders[i].Capacity
	}
	grants := make([]Grant, 0, len(in.Requests))
	for _, ri := range order {
		r := &in.Requests[ri]
		best := -1
		bestUp := 0
		bestMargin := 0.0
		for k, ui := range in.Rows(ri) {
			if remaining[ui] <= 0 {
				continue
			}
			c := &r.Candidates[k]
			// Only individually-rational grants: a transfer that costs more
			// than the chunk is worth lowers welfare.
			if m := r.Value - c.Cost; m > 0 && (best < 0 || m > bestMargin) {
				best, bestUp, bestMargin = ri, int(ui), m
			}
		}
		if best >= 0 {
			remaining[bestUp]--
			grants = append(grants, Grant{Request: best, Uploader: in.Uploaders[bestUp].Peer})
		}
	}
	return &Result{Grants: grants, Stats: map[string]float64{"greedy": 1}}, nil
}
