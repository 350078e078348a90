package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sched"
)

// defaultTTL is how many consecutive slots a shard may sit unused (its swarm
// drained or merged away) before its solver is reclaimed. A retired shard's
// buffers (and a stateful factory solver's carried state) are worthless once
// its peers are gone, and a returning swarm simply gets a fresh solver.
const defaultTTL = 8

// shardState is the orchestrator's persistent view of one shard.
type shardState struct {
	solver sched.Scheduler
	// auction is solver when it is the default sched.Auction, which takes
	// the orchestrator's deadline; nil under a NewSolver factory.
	auction *sched.Auction
	rng     *randx.Source
	// idle counts consecutive slots the shard was absent from the partition.
	idle int
}

// solved is one shard's outcome in a slot.
type solved struct {
	res     *sched.Result
	welfare float64
	err     error
}

// Stats are the orchestrator's cumulative lifecycle counters.
type Stats struct {
	// Born / Retired count shard solver creations and idle reclamations.
	Born, Retired int64
	// Migrations counts uploader peers observed under a different shard key
	// than the slot before (the churn path: a peer's swarm component
	// changed).
	Migrations int64
	// PartitionIncremental / PartitionRebuilds count how many slots carried
	// shard membership incrementally (producer delta consumed, only dirty
	// shards re-found) versus re-partitioned the whole graph (first slot,
	// no delta, refinement active, or an inconsistent delta).
	PartitionIncremental, PartitionRebuilds int64
	// CutEdges totals candidate edges dropped by ISP-affinity refinement.
	CutEdges int64
	// MaxShardRequests is the largest per-shard request count seen.
	MaxShardRequests int
}

// ShardedAuction is a sched.Scheduler that solves each slot as a set of
// independent per-swarm markets: PartitionInstance splits the instance,
// every shard keeps its own solver across slots (a cold sched.Auction by
// default, whose problem and solver buffers it reuses), and a bounded
// worker pool solves the shards concurrently. Results are identical
// regardless of Workers: shards share no state, and grants, prices and
// stats merge in deterministic shard-key order. With the default solver and
// no refinement they are also bit-equal to one sched.Auction on the whole
// instance: the cold auction's FIFO bid queue, restricted to an independent
// component, is that component's own queue, so every shard replays its
// part of the monolithic solve exactly.
//
// A ShardedAuction carries shard membership and solvers across Schedule
// calls and is bound to one simulation run: create a fresh value per run
// and do not call Schedule from multiple goroutines (the internal pool is
// the parallelism).
type ShardedAuction struct {
	// Epsilon is the bid increment handed to every per-shard solver.
	Epsilon float64
	// Deadline is handed to the default per-shard auctions at every
	// Schedule: each shard, run or queued, stops bidding at that instant
	// (sched.Auction.Deadline). The zero value never stops.
	Deadline time.Time
	// Workers bounds concurrent shard solves (0 or 1 = sequential).
	Workers int
	// MaxShardPeers enables ISP-affinity refinement: swarm groups with more
	// than this many distinct peers (uploaders plus downloaders, however
	// many chunks each requests — Shard.Peers) are split per ISP, once an
	// ISP lookup is injected. 0 = never refine; the partition stays exact.
	MaxShardPeers int
	// Seed roots the deterministic per-shard random streams: shard key k
	// gets root.Derive(k.seedLabel()), so a stream depends only on (Seed,
	// key) — never on shard count or discovery order.
	Seed uint64
	// TTLSlots overrides the idle-reclamation horizon (0 = defaultTTL).
	TTLSlots int
	// NewSolver overrides the per-shard solver factory (default: a
	// sched.Auction with Epsilon). The shard's private random stream is for
	// factories whose solvers randomize; sched.Auction ignores it.
	NewSolver func(key Key, rng *randx.Source) sched.Scheduler
	// SelfCheck runs the golden referee (VerifySharded) after every slot —
	// a monolithic re-solve per Schedule, so tests only.
	SelfCheck bool

	ispOf       func(isp.PeerID) (isp.ID, bool)
	inc         incrementalPartitioner
	shards      map[Key]*shardState
	lastShardOf map[isp.PeerID]Key
	curShardOf  map[isp.PeerID]Key
	root        *randx.Source
	slot        int
	stats       Stats
	// welfare is the per-solve welfare series (timestamps are solve
	// indices): each slot with shards adds Σ shard welfare, summed in
	// shard-key order during the merge.
	welfare metrics.Series

	// Per-slot scratch: the shards' states and outcomes (indexed like
	// Partition.Shards) and the pool's largest-first hand-out order.
	states  []*shardState
	results []solved
	order   []int32
}

var _ sched.Scheduler = (*ShardedAuction)(nil)
var _ sched.DeltaScheduler = (*ShardedAuction)(nil)

// Name implements sched.Scheduler.
func (a *ShardedAuction) Name() string { return "auction-sharded" }

// SetISPLookup injects the peer→ISP mapping that unlocks ISP-affinity
// refinement (sim.Run injects the topology's lookup through this; without
// one, oversized components are left whole).
func (a *ShardedAuction) SetISPLookup(f func(isp.PeerID) (isp.ID, bool)) { a.ispOf = f }

// Stats returns the cumulative lifecycle counters.
func (a *ShardedAuction) Stats() Stats { return a.stats }

// ShardCount returns the number of live (not yet reclaimed) shard solvers.
func (a *ShardedAuction) ShardCount() int { return len(a.shards) }

// WelfareSeries returns the global per-solve welfare series: one point per
// solve that had shards, the sum of its shards' welfare in shard-key order
// (welfare is additive over shards, and the fixed order makes the float sum
// deterministic). Reclaimed shards' history is part of it.
func (a *ShardedAuction) WelfareSeries() *metrics.Series {
	return &metrics.Series{Name: a.Name() + "/welfare", Points: slices.Clone(a.welfare.Points)}
}

// ttl returns the idle-reclamation horizon in force.
func (a *ShardedAuction) ttl() int {
	if a.TTLSlots > 0 {
		return a.TTLSlots
	}
	return defaultTTL
}

// Schedule implements sched.Scheduler: partition, solve shards on the pool,
// merge, advance the lifecycle.
func (a *ShardedAuction) Schedule(in *sched.Instance) (*sched.Result, error) {
	return a.schedule(in, nil)
}

// ScheduleDelta implements sched.DeltaScheduler: with a producer-supplied
// slot-to-slot delta, shard membership is maintained incrementally (only
// components the churn touched are re-found), so the partition costs
// O(churn), not O(graph). The shards still solve cold. A nil delta behaves
// exactly like Schedule.
func (a *ShardedAuction) ScheduleDelta(in *sched.Instance, d *sched.InstanceDelta) (*sched.Result, error) {
	return a.schedule(in, d)
}

func (a *ShardedAuction) schedule(in *sched.Instance, d *sched.InstanceDelta) (*sched.Result, error) {
	if a.shards == nil {
		a.shards = make(map[Key]*shardState)
		a.lastShardOf = make(map[isp.PeerID]Key)
		a.curShardOf = make(map[isp.PeerID]Key)
		a.root = randx.New(a.Seed)
	}
	// tracing is sampled once per slot: the per-shard spans below want a
	// consistent on/off decision for the whole schedule call, and the
	// queue-wait stamps are taken only when a trace is live.
	tracing := obs.Active() != nil
	ctk := obs.TrackFor("cluster")
	psp := ctk.Begin("partition")
	var part *Partition
	if a.MaxShardPeers > 0 && a.ispOf != nil {
		// ISP-affinity refinement re-slices oversized shards by a global
		// cost heuristic; membership is not locally maintainable, so this
		// configuration keeps the full per-slot partition.
		a.inc.invalidate()
		a.inc.rebuilds++
		part = PartitionInstance(in, a.MaxShardPeers, a.ispOf)
	} else {
		part = a.inc.update(in, d)
	}
	a.stats.PartitionIncremental = a.inc.incremental
	a.stats.PartitionRebuilds = a.inc.rebuilds
	psp.Arg("shards", float64(len(part.Shards))).
		Arg("cut_edges", float64(part.CutEdges)).
		Arg("rebuilds_total", float64(a.inc.rebuilds)).
		Arg("incremental_total", float64(a.inc.incremental))
	psp.End()

	n := len(part.Shards)
	states := slices.Grow(a.states[:0], n)[:n]
	results := slices.Grow(a.results[:0], n)[:n]
	a.states, a.results = states, results
	for i := range part.Shards {
		sh := &part.Shards[i]
		st, ok := a.shards[sh.Key]
		if !ok {
			st = &shardState{rng: a.root.Derive(sh.Key.seedLabel())}
			if a.NewSolver != nil {
				st.solver = a.NewSolver(sh.Key, st.rng)
			} else {
				st.auction = &sched.Auction{Epsilon: a.Epsilon}
				st.solver = st.auction
			}
			a.shards[sh.Key] = st
			a.stats.Born++
		}
		if st.auction != nil {
			st.auction.Deadline = a.Deadline
		}
		st.idle = -1 // seen this slot; bumped back to >= 0 below
		states[i] = st
		if n := len(sh.Requests); n > a.stats.MaxShardRequests {
			a.stats.MaxShardRequests = n
		}
	}

	// readyAt stamps when the whole batch became runnable (the start of the
	// solve phase): a shard's span reports the gap to its own pickup as
	// queue_wait_us, separating pool latency from solve time per shard.
	var readyAt time.Time
	if tracing {
		readyAt = time.Now()
	}
	solveOne := func(tk *obs.Track, i int) {
		sh := &part.Shards[i]
		sp := tk.Begin("shard-solve")
		if tk != nil {
			sp.Arg("shard", float64(i)).
				Arg("requests", float64(len(sh.Requests))).
				Arg("uploaders", float64(len(sh.Uploaders))).
				Arg("queue_wait_us", float64(time.Since(readyAt).Microseconds()))
		}
		defer sp.End()
		sub, err := in.Subset(sh.Requests, sh.Uploaders)
		if err != nil {
			results[i] = solved{err: err}
			return
		}
		res, err := states[i].solver.Schedule(sub)
		if err != nil {
			results[i] = solved{err: err}
			return
		}
		if tk != nil && res.Stats != nil {
			sp.Arg("bids", res.Stats["bids"]).Arg("iterations", res.Stats["iterations"])
			if gap, ok := res.Stats["gap"]; ok {
				sp.Arg("gap", gap)
			}
		}
		w, err := sub.Welfare(res.Grants)
		results[i] = solved{res: res, welfare: w, err: err}
	}
	// The pool hands shards out largest first (by request count, ties by
	// index) through one atomic cursor, so the long poles start at once
	// and the small shards fill in behind them. The calling goroutine is
	// worker 0, beside Workers−1 helpers.
	order := a.order[:0]
	for i := range part.Shards {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(x, y int32) int {
		if c := cmp.Compare(len(part.Shards[y].Requests), len(part.Shards[x].Requests)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	a.order = order
	var cursor atomic.Int64
	work := func(w int) {
		var tk *obs.Track
		if tracing {
			tk = obs.TrackFor("shard-worker-" + strconv.Itoa(w))
		}
		for {
			k := int(cursor.Add(1) - 1)
			if k >= len(order) {
				return
			}
			solveOne(tk, int(order[k]))
		}
	}
	workers := min(max(a.Workers, 1), n)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()

	msp := ctk.Begin("merge")
	out := &sched.Result{
		Prices: make(map[isp.PeerID]float64, len(in.Uploaders)),
		Stats:  map[string]float64{},
	}
	for i := range in.Uploaders {
		out.Prices[in.Uploaders[i].Peer] = 0 // idle uploaders sell nothing at 0
	}
	grants := 0
	for i := range results {
		if results[i].res != nil {
			grants += len(results[i].res.Grants)
		}
	}
	if grants > 0 {
		out.Grants = make([]sched.Grant, 0, grants)
	}
	migrations := 0
	for k := range a.curShardOf {
		delete(a.curShardOf, k)
	}
	welfare := 0.0
	for i := range part.Shards {
		sh := &part.Shards[i]
		if err := results[i].err; err != nil {
			return nil, fmt.Errorf("sharded auction: shard %v: %w", sh.Key, err)
		}
		res := results[i].res
		for _, g := range res.Grants {
			out.Grants = append(out.Grants, sched.Grant{Request: sh.Requests[g.Request], Uploader: g.Uploader})
		}
		for p, lambda := range res.Prices {
			out.Prices[p] = lambda
		}
		for k, v := range res.Stats {
			out.Stats[k] += v
		}
		for _, ui := range sh.Uploaders {
			peer := in.Uploaders[ui].Peer
			a.curShardOf[peer] = sh.Key
			if prev, ok := a.lastShardOf[peer]; ok && prev != sh.Key {
				migrations++
			}
		}
		welfare += results[i].welfare
	}
	clear(results) // the shard results are merged: let them go
	if n > 0 {
		_ = a.welfare.Add(float64(a.slot), welfare)
	}
	a.lastShardOf, a.curShardOf = a.curShardOf, a.lastShardOf
	a.stats.Migrations += int64(migrations)
	a.stats.CutEdges += int64(part.CutEdges)
	if part.CutEdges > 0 {
		// Refinement solved the shards without their cut edges, so the
		// summed shard gaps do not bound the whole instance: price it whole.
		out.Stats["gap"] = dualGap(in, out, welfare)
	}
	out.Stats["shards"] = float64(len(part.Shards))
	out.Stats["cut_edges"] = float64(part.CutEdges)
	out.Stats["migrations"] = float64(migrations)
	out.Stats["idle_uploaders"] = float64(len(part.IdleUploaders))
	msp.Arg("shards", float64(len(part.Shards))).
		Arg("grants", float64(len(out.Grants))).
		Arg("migrations", float64(migrations)).
		Arg("cut_edges", float64(part.CutEdges))
	msp.End()

	// Lifecycle: shards absent this slot age toward reclamation.
	for key, st := range a.shards {
		if st.idle < 0 {
			st.idle = 0
			continue
		}
		st.idle++
		if st.idle >= a.ttl() {
			delete(a.shards, key)
			a.stats.Retired++
		}
	}
	a.slot++

	if a.SelfCheck {
		if err := VerifySharded(in, part, out, a.Epsilon); err != nil {
			return nil, fmt.Errorf("sharded auction self-check: %w", err)
		}
	}
	return out, nil
}

// dualGap is the merged result's duality gap over the whole instance:
// Σ λ_u·B(u) + Σ_r max(0, max_k(v − c_k − λ_{u_k})) − welfare.
func dualGap(in *sched.Instance, res *sched.Result, welfare float64) float64 {
	prices := make([]float64, len(in.Uploaders))
	dual := 0.0
	for i, u := range in.Uploaders {
		prices[i] = res.Prices[u.Peer]
		dual += prices[i] * float64(u.Capacity)
	}
	for i := range in.Requests {
		r := &in.Requests[i]
		eta := 0.0
		for k, row := range in.Rows(i) {
			eta = max(eta, r.Value-r.Candidates[k].Cost-prices[row])
		}
		dual += eta
	}
	return dual - welfare
}
