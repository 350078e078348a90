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
	// auction is the default solver, a cold sched.Auction that solves the
	// shard as a view of the parent instance and takes the orchestrator's
	// deadline; solver is a NewSolver factory's instead, which solves the
	// shard's Instance.Subset copy.
	auction *sched.Auction
	solver  sched.Scheduler
	rng     *randx.Source
	// idle counts consecutive slots the shard was absent from the partition.
	idle int
}

// solved is one shard's outcome in a slot. A view solve writes its grants
// and prices into the orchestrator's parent-indexed arrays and leaves its
// counters here; a NewSolver solver's Result is kept whole.
type solved struct {
	view    sched.ViewResult
	res     *sched.Result
	welfare float64
	err     error
}

// owner is an uploader peer's shard in the last slot, for migration
// counting.
type owner struct {
	peer isp.PeerID
	key  Key
}

// Stats are the orchestrator's cumulative lifecycle counters.
type Stats struct {
	// Born / Retired count shard solver creations and idle reclamations.
	Born, Retired int64
	// Migrations counts uploader peers observed under a different shard key
	// than the slot before (the churn path: a peer's swarm component
	// changed).
	Migrations int64
	// PartitionRebuilds counts partitions: every slot partitions the whole
	// graph. PartitionIncremental stays 0; it counted slots whose
	// membership an incremental partitioner carried, and is kept only
	// because perfbench's reportSharded still reads it.
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
// worker pool solves the shards concurrently. A default shard is a view of
// the parent instance, not a copy: its auction fills its problem straight
// from the parent's rows and writes grants and prices into arrays indexed
// by parent request and uploader row, which one pass merges into the
// Result. Results are identical regardless of Workers: shards share no
// state, and grants, prices and stats merge in deterministic shard-key
// order. With the default solver and no refinement they are also bit-equal
// to one sched.Auction on the whole instance: the cold auction's FIFO bid
// queue, restricted to an independent component, is that component's own
// queue, so every shard replays its part of the monolithic solve exactly.
//
// A ShardedAuction carries shard solvers across Schedule calls and is bound
// to one simulation run: create a fresh value per run and do not call
// Schedule from multiple goroutines (the internal pool is the parallelism).
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
	// sched.Auction with Epsilon). A factory's solver is handed each slot's
	// shard as an Instance.Subset copy. The shard's private random stream is
	// for factories whose solvers randomize; sched.Auction ignores it.
	NewSolver func(key Key, rng *randx.Source) sched.Scheduler
	// SelfCheck runs the golden referee (VerifySharded) after every slot —
	// a monolithic re-solve per Schedule, so tests only.
	SelfCheck bool

	ispOf  func(isp.PeerID) (isp.ID, bool)
	pt     partitioner
	shards map[Key]*shardState
	// owners lists last slot's shard uploaders by ascending peer, for
	// migration counting; spareOwners is its double buffer.
	owners, spareOwners []owner
	root                *randx.Source
	slot                int
	stats               Stats
	// welfare is the per-solve welfare series (timestamps are solve
	// indices): each slot with shards adds Σ shard welfare, summed in
	// shard-key order during the merge.
	welfare metrics.Series

	// Per-slot state, read by the pool's workers: the instance and its
	// partition, the shards' states and outcomes (indexed like
	// part.Shards), the largest-first hand-out order and its cursor, and
	// the view solves' grants and prices by parent request and uploader
	// row.
	in      *sched.Instance
	part    *Partition
	states  []*shardState
	results []solved
	order   []int32
	cursor  atomic.Int64
	wg      sync.WaitGroup
	grant   []int32
	price   []float64
	byPeer  []int32 // uploader rows by ascending peer, when rows are not
	tracing bool
	readyAt time.Time
}

var _ sched.Scheduler = (*ShardedAuction)(nil)

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
	if a.shards == nil {
		a.shards = make(map[Key]*shardState)
		a.root = randx.New(a.Seed)
	}
	// tracing is sampled once per slot: the per-shard spans below want a
	// consistent on/off decision for the whole schedule call, and the
	// queue-wait stamps are taken only when a trace is live.
	a.tracing = obs.Active() != nil
	ctk := obs.TrackFor("cluster")
	psp := ctk.Begin("partition")
	part := a.pt.partition(in, a.MaxShardPeers, a.ispOf)
	a.stats.PartitionRebuilds++
	psp.Arg("shards", float64(len(part.Shards))).
		Arg("cut_edges", float64(part.CutEdges)).
		Arg("rebuilds_total", float64(a.stats.PartitionRebuilds))
	psp.End()

	n := len(part.Shards)
	a.in, a.part = in, part
	a.states = slices.Grow(a.states[:0], n)[:n]
	a.results = slices.Grow(a.results[:0], n)[:n]
	a.grant = slices.Grow(a.grant[:0], len(in.Requests))[:len(in.Requests)]
	a.price = slices.Grow(a.price[:0], len(in.Uploaders))[:len(in.Uploaders)]
	clear(a.price) // idle uploaders sell nothing at 0
	for i := range part.Shards {
		sh := &part.Shards[i]
		st, ok := a.shards[sh.Key]
		if !ok {
			st = &shardState{rng: a.root.Derive(sh.Key.seedLabel())}
			if a.NewSolver != nil {
				st.solver = a.NewSolver(sh.Key, st.rng)
			} else {
				st.auction = &sched.Auction{Epsilon: a.Epsilon}
			}
			a.shards[sh.Key] = st
			a.stats.Born++
		}
		if st.auction != nil {
			st.auction.Deadline = a.Deadline
		}
		st.idle = -1 // seen this slot; bumped back to >= 0 below
		a.states[i] = st
		a.stats.MaxShardRequests = max(a.stats.MaxShardRequests, len(sh.Requests))
	}

	// readyAt stamps when the whole batch became runnable (the start of the
	// solve phase): a shard's span reports the gap to its own pickup as
	// queue_wait_us, separating pool latency from solve time per shard.
	if a.tracing {
		a.readyAt = time.Now()
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
	a.cursor.Store(0)
	workers := min(max(a.Workers, 1), n)
	for w := 1; w < workers; w++ {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.work(w)
		}()
	}
	a.work(0)
	a.wg.Wait()

	out, err := a.merge(ctk)
	if err != nil {
		return nil, err
	}

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
	a.in = nil

	if a.SelfCheck {
		if err := VerifySharded(in, part, out, a.Epsilon); err != nil {
			return nil, fmt.Errorf("sharded auction self-check: %w", err)
		}
	}
	return out, nil
}

// work is worker w's loop: it solves shards from the hand-out order until
// none is left.
func (a *ShardedAuction) work(w int) {
	var tk *obs.Track
	if a.tracing {
		tk = obs.TrackFor("shard-worker-" + strconv.Itoa(w))
	}
	for {
		k := int(a.cursor.Add(1) - 1)
		if k >= len(a.order) {
			return
		}
		a.solveShard(tk, int(a.order[k]))
	}
}

// solveShard solves shard i into its slot of the results. A default shard
// solves as a view of the parent and writes its grants and prices into the
// parent-indexed arrays; a NewSolver solver solves a Subset copy, and its
// prices are copied into the same array.
func (a *ShardedAuction) solveShard(tk *obs.Track, i int) {
	sh := &a.part.Shards[i]
	sp := tk.Begin("shard-solve")
	if tk != nil {
		sp.Arg("shard", float64(i)).
			Arg("requests", float64(len(sh.Requests))).
			Arg("uploaders", float64(len(sh.Uploaders))).
			Arg("queue_wait_us", float64(time.Since(a.readyAt).Microseconds()))
	}
	defer sp.End()
	r := &a.results[i]
	if au := a.states[i].auction; au != nil {
		v := a.part.view(i)
		vr, err := au.ScheduleView(a.in, &v, a.grant, a.price)
		*r = solved{view: vr, welfare: vr.Welfare, err: err}
		if tk != nil && err == nil {
			sp.Arg("bids", float64(vr.Bids)).Arg("iterations", float64(vr.Iterations)).Arg("gap", vr.Gap)
		}
		return
	}
	sub, err := a.in.Subset(sh.Requests, sh.Uploaders)
	if err != nil {
		*r = solved{err: err}
		return
	}
	res, err := a.states[i].solver.Schedule(sub)
	if err != nil {
		*r = solved{err: err}
		return
	}
	if tk != nil && res.Stats != nil {
		sp.Arg("bids", res.Stats["bids"]).Arg("iterations", res.Stats["iterations"])
		if gap, ok := res.Stats["gap"]; ok {
			sp.Arg("gap", gap)
		}
	}
	for k, ui := range sh.Uploaders {
		a.price[ui] = res.Prices[sub.Uploaders[k].Peer]
	}
	w, err := sub.Welfare(res.Grants)
	*r = solved{res: res, welfare: w, err: err}
}

// merge turns the shards' outcomes into the slot's Result in one pass in
// shard-key order: grants shard by shard (each shard's in its request
// order), counters and welfare summed in that order, prices from the
// parent-indexed array.
func (a *ShardedAuction) merge(ctk *obs.Track) (*sched.Result, error) {
	msp := ctk.Begin("merge")
	in, part, results := a.in, a.part, a.results
	defer clear(results) // the shard results are merged: let them go
	grants := 0
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, fmt.Errorf("sharded auction: shard %v: %w", part.Shards[i].Key, err)
		}
		if res := results[i].res; res != nil {
			grants += len(res.Grants)
		} else {
			grants += results[i].view.Grants
		}
	}
	out := &sched.Result{
		Prices: make(map[isp.PeerID]float64, len(in.Uploaders)),
		Stats:  make(map[string]float64, 9),
	}
	if grants > 0 {
		out.Grants = make([]sched.Grant, 0, grants)
	}
	var bids, iterations, evictions, stopped int
	views := 0
	gap, welfare := 0.0, 0.0
	for i := range part.Shards {
		sh, r := &part.Shards[i], &results[i]
		welfare += r.welfare
		if r.res != nil {
			for _, g := range r.res.Grants {
				out.Grants = append(out.Grants, sched.Grant{Request: sh.Requests[g.Request], Uploader: g.Uploader})
			}
			for k, v := range r.res.Stats {
				out.Stats[k] += v
			}
			continue
		}
		for _, ri := range sh.Requests {
			if row := a.grant[ri]; row >= 0 {
				out.Grants = append(out.Grants, sched.Grant{Request: ri, Uploader: in.Uploaders[row].Peer})
			}
		}
		v := &r.view
		views++
		bids += v.Bids
		iterations += v.Iterations
		evictions += v.Evictions
		gap += v.Gap
		if v.Stopped {
			stopped++
		}
	}
	if views > 0 {
		out.Stats["bids"] = float64(bids)
		out.Stats["iterations"] = float64(iterations)
		out.Stats["evictions"] = float64(evictions)
		out.Stats["gap"] = gap
		out.Stats["stopped"] = float64(stopped)
	}
	for i, u := range in.Uploaders {
		out.Prices[u.Peer] = a.price[i]
	}
	if len(part.Shards) > 0 {
		_ = a.welfare.Add(float64(a.slot), welfare)
	}
	migrations := a.migrations()
	a.stats.Migrations += int64(migrations)
	a.stats.CutEdges += int64(part.CutEdges)
	if part.CutEdges > 0 {
		// Refinement solved the shards without their cut edges, so the
		// summed shard gaps do not bound the whole instance: price it whole.
		out.Stats["gap"] = dualGap(in, a.price, welfare)
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
	return out, nil
}

// migrations counts this slot's shard uploaders whose peer sat under a
// different shard key last slot, and records this slot's owners: one merge
// of two peer-ordered lists. Builder instances list their uploaders by
// ascending peer; other instances are put in that order first.
func (a *ShardedAuction) migrations() int {
	in, part := a.in, a.part
	ups := in.Uploaders
	sorted := slices.IsSortedFunc(ups, func(x, y sched.Uploader) int { return cmp.Compare(x.Peer, y.Peer) })
	if !sorted {
		a.byPeer = a.byPeer[:0]
		for i := range ups {
			a.byPeer = append(a.byPeer, int32(i))
		}
		slices.SortFunc(a.byPeer, func(x, y int32) int { return cmp.Compare(ups[x].Peer, ups[y].Peer) })
	}
	prev, cur := a.owners, a.spareOwners[:0]
	migrations, j := 0, 0
	for k := range ups {
		row := k
		if !sorted {
			row = int(a.byPeer[k])
		}
		s := part.shardOf[row]
		if s < 0 {
			continue
		}
		o := owner{peer: ups[row].Peer, key: part.Shards[s].Key}
		for j < len(prev) && prev[j].peer < o.peer {
			j++
		}
		if j < len(prev) && prev[j].peer == o.peer && prev[j].key != o.key {
			migrations++
		}
		cur = append(cur, o)
	}
	a.owners, a.spareOwners = cur, prev
	return migrations
}

// dualGap is the merged result's duality gap over the whole instance:
// Σ λ_u·B(u) + Σ_r max(0, max_k(v − c_k − λ_{u_k})) − welfare, with the
// prices by uploader row.
func dualGap(in *sched.Instance, prices []float64, welfare float64) float64 {
	dual := 0.0
	for i, u := range in.Uploaders {
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
