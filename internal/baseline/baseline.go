// Package baseline implements the comparison schedulers from the paper's
// evaluation (§V): the "simple locality-aware" algorithm — downstream peers
// request from the cheapest upstream neighbors, upstream peers serve the most
// urgent deadlines first — and a network-agnostic random scheduler
// representing the legacy protocols the paper's introduction criticizes.
package baseline

import (
	"sort"

	"repro/internal/randx"
	"repro/internal/sched"
)

// DefaultRounds is how many request/serve rounds a slot allows. Each round
// models one request-RTT: a rejected downstream learns nothing about prices
// (there are none) and simply tries its next-cheapest untried neighbor.
const DefaultRounds = 3

// Locality is the paper's "simple locality-aware chunk scheduling algorithm":
// request from the lowest-cost neighbor as much as possible; upstream serves
// by deadline urgency. It ignores chunk valuations entirely, which is why its
// social welfare can go negative (paper §V.B).
type Locality struct {
	// Rounds bounds the retry rounds per slot (default DefaultRounds).
	Rounds int
}

var _ sched.Scheduler = (*Locality)(nil)

// Name implements sched.Scheduler.
func (l *Locality) Name() string { return "simple-locality" }

// Schedule implements sched.Scheduler.
func (l *Locality) Schedule(in *sched.Instance) (*sched.Result, error) {
	rounds := l.Rounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	pick := func(r *sched.Request, tried []bool) (int, bool) {
		best := -1
		for k, c := range r.Candidates {
			if tried[k] {
				continue
			}
			// Lowest cost wins; ties to the lower peer id for determinism.
			if best < 0 || c.Cost < r.Candidates[best].Cost ||
				(c.Cost == r.Candidates[best].Cost && c.Peer < r.Candidates[best].Peer) {
				best = k
			}
		}
		return best, best >= 0
	}
	return runRounds(in, rounds, pick), nil
}

// Random is the network-agnostic baseline: downstream peers pick a uniformly
// random candidate each round, upstream peers still serve most-urgent first.
type Random struct {
	// Seed makes runs reproducible.
	Seed uint64
	// Rounds bounds the retry rounds per slot (default DefaultRounds).
	Rounds int

	rng *randx.Source
}

var _ sched.Scheduler = (*Random)(nil)

// Name implements sched.Scheduler.
func (r *Random) Name() string { return "random" }

// Schedule implements sched.Scheduler.
func (r *Random) Schedule(in *sched.Instance) (*sched.Result, error) {
	if r.rng == nil {
		r.rng = randx.New(r.Seed)
	}
	rounds := r.Rounds
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	var open []int
	pick := func(req *sched.Request, tried []bool) (int, bool) {
		open = open[:0]
		for k := range req.Candidates {
			if !tried[k] {
				open = append(open, k)
			}
		}
		if len(open) == 0 {
			return 0, false
		}
		return open[r.rng.Intn(len(open))], true
	}
	return runRounds(in, rounds, pick), nil
}

// pickFunc chooses the candidate position a request should try next;
// tried[k] marks the positions whose uploader already rejected it.
type pickFunc func(r *sched.Request, tried []bool) (int, bool)

// runRounds is the shared round loop: downstreams propose via pick, each
// uploader accepts its most urgent proposals while capacity lasts, rejected
// proposals retry next round with that uploader marked as tried.
func runRounds(in *sched.Instance, rounds int, pick pickFunc) *sched.Result {
	remaining := make([]int, len(in.Uploaders))
	for i, u := range in.Uploaders {
		remaining[i] = u.Capacity
	}
	granted := make([]bool, len(in.Requests))
	// tried is per candidate edge: request ri's flags start at edgeOff[ri].
	edgeOff := make([]int, len(in.Requests)+1)
	for ri := range in.Requests {
		edgeOff[ri+1] = edgeOff[ri] + len(in.Requests[ri].Candidates)
	}
	tried := make([]bool, edgeOff[len(in.Requests)])
	// proposals[ui] lists the requests proposing to uploader row ui this
	// round; proposed lists those rows.
	proposals := make([][]int, len(in.Uploaders))
	var proposed []int32
	res := &sched.Result{Stats: map[string]float64{}}
	proposalsTotal := 0

	for round := 0; round < rounds; round++ {
		for _, ui := range proposed {
			proposals[ui] = proposals[ui][:0]
		}
		proposed = proposed[:0]
		for ri := range in.Requests {
			if granted[ri] {
				continue
			}
			rt := tried[edgeOff[ri]:edgeOff[ri+1]]
			k, ok := pick(&in.Requests[ri], rt)
			if !ok {
				continue // exhausted all candidates
			}
			rows := in.Rows(ri)
			target := rows[k]
			for j, ui := range rows {
				if ui == target {
					rt[j] = true
				}
			}
			if len(proposals[target]) == 0 {
				proposed = append(proposed, target)
			}
			proposals[target] = append(proposals[target], ri)
		}
		if len(proposed) == 0 {
			break
		}
		for _, ui := range proposed {
			proposalsTotal += len(proposals[ui])
		}

		// Deterministic uploader processing order: ascending peer id.
		sort.Slice(proposed, func(i, j int) bool {
			return in.Uploaders[proposed[i]].Peer < in.Uploaders[proposed[j]].Peer
		})

		for _, ui := range proposed {
			reqs := proposals[ui]
			// Most urgent deadline first; ties by request index.
			sort.Slice(reqs, func(i, j int) bool {
				di := in.Requests[reqs[i]].Deadline
				dj := in.Requests[reqs[j]].Deadline
				if di != dj {
					return di < dj
				}
				return reqs[i] < reqs[j]
			})
			for _, ri := range reqs {
				if remaining[ui] == 0 {
					break
				}
				remaining[ui]--
				granted[ri] = true
				res.Grants = append(res.Grants, sched.Grant{Request: ri, Uploader: in.Uploaders[ui].Peer})
			}
		}
	}
	res.Stats["proposals"] = float64(proposalsTotal)
	res.Stats["rounds"] = float64(rounds)
	return res
}
