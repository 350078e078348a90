package cluster

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/isp"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/video"
)

// TestShardedMatchesMonolithicWelfare is the referee golden on a synthetic
// multi-swarm churn trace: every slot, the sharded orchestrator's welfare
// must match the monolithic cold auction's within the shared n·ε certificate
// band (the partition is exact — swarms are independent by construction).
func TestShardedMatchesMonolithicWelfare(t *testing.T) {
	const eps = 0.01
	slots := buildSlots(7, 8, 5, 40, 10, 0.15, false)
	sharded := &ShardedAuction{Epsilon: eps, Workers: 4}
	cold := &sched.Auction{Epsilon: eps}
	for i, in := range slots {
		sres, err := sharded.Schedule(in)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if err := in.Validate(sres.Grants); err != nil {
			t.Fatalf("slot %d: sharded grants infeasible: %v", i, err)
		}
		cres, err := cold.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.Welfare(sres.Grants)
		if err != nil {
			t.Fatal(err)
		}
		want, err := in.Welfare(cres.Grants)
		if err != nil {
			t.Fatal(err)
		}
		band := eps*float64(len(in.Requests)) + 1e-9
		if diff := math.Abs(got - want); diff > band {
			t.Fatalf("slot %d: sharded welfare %v vs monolithic %v — Δ=%g exceeds band %g",
				i, got, want, diff, band)
		}
		if sres.Stats["shards"] != 5 {
			t.Fatalf("slot %d: %v shards, want 5", i, sres.Stats["shards"])
		}
	}
}

// TestShardedBitEqualOnIntegralWeights pins the exact-equality theorem: the
// sharded total welfare is bit-equal to the monolithic one. It once held
// only for integral weights with ε small enough, where both solves land on
// the unique optimum; with cold shards every shard replays its part of the
// monolithic solve (TestShardedColdEqualsMonolithic), so the float trace,
// where summation order shows in the last bits, must match too.
func TestShardedBitEqualOnIntegralWeights(t *testing.T) {
	const eps = 1e-3
	for _, integral := range []bool{true, false} {
		slots := buildSlots(11, 6, 4, 30, 8, 0.2, integral)
		sharded := &ShardedAuction{Epsilon: eps}
		cold := &sched.Auction{Epsilon: eps}
		for i, in := range slots {
			sres, err := sharded.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			cres, err := cold.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := in.Welfare(sortedGrants(sres.Grants))
			want, _ := in.Welfare(cres.Grants)
			if got != want {
				t.Fatalf("integral=%v slot %d: sharded welfare %v != monolithic %v",
					integral, i, got, want)
			}
		}
	}
}

// TestShardedDeterministicAcrossWorkers pins the merge: the full Result —
// grants, prices, stats — must be identical no matter how many workers solve
// the shards.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	var base []*sched.Result
	for _, workers := range []int{1, 2, 8} {
		slots := buildSlots(13, 6, 6, 30, 8, 0.2, false)
		a := &ShardedAuction{Epsilon: 0.01, Workers: workers}
		var results []*sched.Result
		for _, in := range slots {
			res, err := a.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		if base == nil {
			base = results
			continue
		}
		for i := range results {
			if !reflect.DeepEqual(base[i].Grants, results[i].Grants) {
				t.Fatalf("workers=%d slot %d: grants differ from sequential", workers, i)
			}
			if !reflect.DeepEqual(base[i].Prices, results[i].Prices) {
				t.Fatalf("workers=%d slot %d: prices differ from sequential", workers, i)
			}
			if !reflect.DeepEqual(base[i].Stats, results[i].Stats) {
				t.Fatalf("workers=%d slot %d: stats differ from sequential", workers, i)
			}
		}
	}
}

// TestShardedGapCoversWholeInstance: the merged Stats["gap"], the sum of
// the shard gaps, must be the whole instance's Dual(λ) − W, recomputed here
// from its candidates, and within n·ε. The golden referee (SelfCheck) runs
// after every slot too.
func TestShardedGapCoversWholeInstance(t *testing.T) {
	const eps = 0.01
	slots := buildSlots(17, 5, 2, 60, 12, 0.15, false)
	a := &ShardedAuction{Epsilon: eps, Workers: 2, SelfCheck: true}
	for i, in := range slots {
		res, err := a.Schedule(in)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		checkGap(t, fmt.Sprintf("slot %d", i), in, res)
		if gap := res.Stats["gap"]; gap > eps*float64(len(in.Requests))+1e-9 {
			t.Fatalf("slot %d: gap %v exceeds n·ε", i, gap)
		}
	}
}

// checkGap fails unless res.Stats["gap"] is in's Dual(λ) − W at res's
// prices and grants, recomputed from the candidates.
func checkGap(t *testing.T, label string, in *sched.Instance, res *sched.Result) {
	t.Helper()
	welfare, err := in.Welfare(res.Grants)
	if err != nil {
		t.Fatal(err)
	}
	dual := 0.0
	for _, u := range in.Uploaders {
		dual += res.Prices[u.Peer] * float64(u.Capacity)
	}
	for _, r := range in.Requests {
		eta := 0.0
		for _, c := range r.Candidates {
			eta = max(eta, r.Value-c.Cost-res.Prices[c.Peer])
		}
		dual += eta
	}
	gap, tol := res.Stats["gap"], 1e-9*max(1, dual)
	if math.Abs(gap-(dual-welfare)) > tol || gap < -tol {
		t.Fatalf("%s: gap %v, whole-instance Dual − W = %v", label, gap, dual-welfare)
	}
}

// TestShardedLifecycle drives shard birth, idle reclamation and peer
// migration: swarm 1 vanishes mid-run (its shard must retire after TTL
// slots) and an uploader defects from swarm 0 to swarm 2 (a migration).
func TestShardedLifecycle(t *testing.T) {
	mk := func(swarm int, chunk int, up isp.PeerID, cost float64) sched.Request {
		return sched.Request{
			Peer:  downPeer(swarm, chunk),
			Chunk: chunkOf(swarm, chunk),
			Value: 5,
			Candidates: []sched.Candidate{
				{Peer: up, Cost: cost},
			},
		}
	}
	a := &ShardedAuction{Epsilon: 0.01, TTLSlots: 2}

	// Slot 0: swarms 0, 1, 2 each with their own uploader; the defector
	// uploader 999 serves swarm 0.
	defector := isp.PeerID(999)
	ups := []sched.Uploader{
		{Peer: upPeer(0, 0), Capacity: 1}, {Peer: upPeer(1, 0), Capacity: 1},
		{Peer: upPeer(2, 0), Capacity: 1}, {Peer: defector, Capacity: 1},
	}
	in0, err := sched.NewInstance([]sched.Request{
		mk(0, 0, upPeer(0, 0), 1), mk(0, 1, defector, 1),
		mk(1, 0, upPeer(1, 0), 1), mk(2, 0, upPeer(2, 0), 1),
	}, ups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Schedule(in0); err != nil {
		t.Fatal(err)
	}
	if got := a.ShardCount(); got != 3 {
		t.Fatalf("after slot 0: %d shards, want 3", got)
	}
	if a.Stats().Born != 3 {
		t.Fatalf("born = %d, want 3", a.Stats().Born)
	}

	// Slots 1..3: swarm 1 is gone and the defector now serves swarm 2.
	ups2 := []sched.Uploader{
		{Peer: upPeer(0, 0), Capacity: 1}, {Peer: upPeer(2, 0), Capacity: 1},
		{Peer: defector, Capacity: 1},
	}
	for slot := 1; slot <= 3; slot++ {
		in, err := sched.NewInstance([]sched.Request{
			mk(0, 0, upPeer(0, 0), 1),
			mk(2, 0, upPeer(2, 0), 1), mk(2, 1, defector, 1),
		}, ups2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Schedule(in); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Migrations == 0 {
		t.Error("defecting uploader was not counted as a migration")
	}
	if st.Retired != 1 {
		t.Errorf("retired = %d, want 1 (swarm 1 idle past TTL)", st.Retired)
	}
	if got := a.ShardCount(); got != 2 {
		t.Errorf("after reclamation: %d shards, want 2", got)
	}
	// Reclamation must not lose the retired shard's welfare history: slot 0
	// granted all 4 unit requests at welfare 5−1 each.
	if merged := a.WelfareSeries(); merged.Len() == 0 || merged.Points[0].V != 16 {
		t.Errorf("merged welfare after retirement = %+v, want slot 0 at 16", merged.Points)
	}

	// Swarm 1 returns: a fresh shard is born.
	in4, err := sched.NewInstance([]sched.Request{
		mk(1, 5, upPeer(1, 0), 1),
	}, []sched.Uploader{{Peer: upPeer(1, 0), Capacity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Schedule(in4); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Born != 4 {
		t.Errorf("born = %d, want 4 (swarm 1 reborn)", a.Stats().Born)
	}
}

// TestShardedWelfareSeriesMergesExactly checks the cross-shard metric merge:
// the orchestrator's merged welfare series (Σ shard welfare per slot) must
// reproduce each slot's total welfare exactly.
func TestShardedWelfareSeriesMergesExactly(t *testing.T) {
	slots := buildSlots(19, 6, 4, 25, 8, 0.15, true) // integral: sums are exact
	a := &ShardedAuction{Epsilon: 1e-3}
	var want []float64
	for _, in := range slots {
		res, err := a.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		w, err := in.Welfare(res.Grants)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
	}
	merged := a.WelfareSeries()
	if merged.Len() != len(slots) {
		t.Fatalf("merged series has %d points, want %d", merged.Len(), len(slots))
	}
	for i, p := range merged.Points {
		if p.V != want[i] {
			t.Errorf("slot %d: merged welfare %v, instance welfare %v", i, p.V, want[i])
		}
	}
}

func chunkOf(swarm, idx int) video.ChunkID {
	return video.ChunkID{Video: video.ID(swarm), Index: video.ChunkIndex(idx)}
}

// TestShardedWelfareSeriesDeterministic pins the welfare series bit for bit
// on float weights, where summation order shows in the last bits: repeated
// calls and 1, 2 or 8 workers must all return the identical series.
func TestShardedWelfareSeriesDeterministic(t *testing.T) {
	var base *metrics.Series
	for _, workers := range []int{1, 2, 8} {
		slots := buildSlots(43, 10, 40, 20, 6, 0.2, false)
		a := &ShardedAuction{Epsilon: 0.01, Workers: workers, TTLSlots: 2}
		for _, in := range slots {
			if _, err := a.Schedule(in); err != nil {
				t.Fatal(err)
			}
		}
		first := a.WelfareSeries()
		if first.Len() != len(slots) {
			t.Fatalf("workers=%d: %d points, want %d", workers, first.Len(), len(slots))
		}
		for call := 0; call < 200; call++ {
			if got := a.WelfareSeries(); !reflect.DeepEqual(got, first) {
				t.Fatalf("workers=%d call %d: welfare series changed between calls", workers, call)
			}
		}
		if base == nil {
			base = first
		} else if !reflect.DeepEqual(first, base) {
			t.Fatalf("workers=%d: welfare series differs from sequential", workers)
		}
	}
}

// TestShardedColdEqualsMonolithic is the differential test of the shard
// views: a Builder-produced churn sequence, fed through the orchestrator,
// must grant exactly what one monolithic sched.Auction grants, at exactly
// its prices, on every slot and at every worker count. The cold auction's
// FIFO bid queue, restricted to an independent component, is that
// component's own queue, so each shard replays its part of the monolithic
// solve bid for bid. Past a deadline both sides stop before the first bid
// and fill spare capacity in request order, which a component also does on
// its own, so the stopped fills are bit-equal too. (A deadline reached
// mid-solve is not: every solver reads the clock on its own iteration
// count.)
func TestShardedColdEqualsMonolithic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		slots    []*sched.Instance
		deadline time.Time
	}{
		{"float", buildSlots(23, 14, 8, 40, 10, 0.2, false), time.Time{}},
		{"integral", buildSlots(31, 14, 5, 60, 12, 0.3, true), time.Time{}},
		{"heavy-churn", buildSlots(37, 10, 12, 25, 6, 0.6, false), time.Time{}},
		{"cross-swarm", crossSwarmSlots(t, 43, 24, 8, 6, 12), time.Time{}},
		{"past-deadline", buildSlots(29, 8, 6, 40, 10, 0.2, false), time.Unix(1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					coldEqualsMonolithic(t, tc.slots, workers, tc.deadline)
				})
			}
		})
	}
}

// TestShardedViewMatchesSubsetPath is the referee of the shard views: the
// shipping path, whose auctions fill their problems straight from the
// parent's rows and write grants and prices by parent index, against a
// twin that copies each shard of a fresh PartitionInstance into a
// standalone instance and hands it to a plain sched.Auction. On swarm
// churn, cross-swarm churn and past a deadline, at 1, 2 and 8 workers, the
// two must agree bit for bit: grants in order, every price and every
// summed counter.
func TestShardedViewMatchesSubsetPath(t *testing.T) {
	for _, tc := range []struct {
		name     string
		slots    []*sched.Instance
		deadline time.Time
	}{
		{"float", buildSlots(23, 14, 8, 40, 10, 0.2, false), time.Time{}},
		{"cross-swarm", crossSwarmSlots(t, 43, 24, 8, 6, 12), time.Time{}},
		{"past-deadline", buildSlots(29, 8, 6, 40, 10, 0.2, false), time.Unix(1, 0)},
	} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				shipping := &ShardedAuction{Epsilon: 0.01, Workers: workers, Deadline: tc.deadline}
				stopped, granted := 0.0, 0
				for slot, in := range tc.slots {
					got, err := shipping.Schedule(in)
					if err != nil {
						t.Fatal(err)
					}
					want := subsetPath(t, in, 0.01, tc.deadline)
					if !slices.Equal(got.Grants, want.Grants) {
						t.Fatalf("slot %d: grants diverge from the Subset path's", slot)
					}
					if !reflect.DeepEqual(got.Prices, want.Prices) {
						t.Fatalf("slot %d: prices diverge from the Subset path's", slot)
					}
					for k, w := range want.Stats {
						if got.Stats[k] != w {
							t.Fatalf("slot %d: stat %q is %v, Subset path %v", slot, k, got.Stats[k], w)
						}
					}
					stopped += got.Stats["stopped"]
					granted += len(got.Grants)
				}
				if granted == 0 {
					t.Fatal("nothing granted; the fixture is vacuous")
				}
				if !tc.deadline.IsZero() && stopped == 0 {
					t.Fatal("no shard stopped at the past deadline")
				}
			})
		}
	}
}

// subsetPath solves in shard by shard on standalone copies: each shard of
// PartitionInstance(in) becomes its own Instance (its requests and
// uploaders in parent order, candidate lists intact, since no edge leaves
// a component) solved by a fresh sched.Auction. Grants come back in parent
// indices, shard by shard in key order; prices cover every uploader (idle
// ones at 0); bids, iterations, evictions, gap and stopped shards are
// summed in key order, as the orchestrator merges them.
func subsetPath(t *testing.T, in *sched.Instance, eps float64, deadline time.Time) *sched.Result {
	t.Helper()
	part := PartitionInstance(in)
	out := &sched.Result{Prices: map[isp.PeerID]float64{}, Stats: map[string]float64{}}
	for _, u := range in.Uploaders {
		out.Prices[u.Peer] = 0
	}
	for _, sh := range part.Shards {
		reqs := make([]sched.Request, len(sh.Requests))
		for k, ri := range sh.Requests {
			reqs[k] = in.Requests[ri]
		}
		ups := make([]sched.Uploader, len(sh.Uploaders))
		for k, ui := range sh.Uploaders {
			ups[k] = in.Uploaders[ui]
		}
		sub, err := sched.NewInstance(reqs, ups)
		if err != nil {
			t.Fatalf("shard %v: %v", sh.Key, err)
		}
		res, err := (&sched.Auction{Epsilon: eps, Deadline: deadline}).Schedule(sub)
		if err != nil {
			t.Fatalf("shard %v: %v", sh.Key, err)
		}
		for _, g := range sortedGrants(res.Grants) {
			out.Grants = append(out.Grants, sched.Grant{Request: sh.Requests[g.Request], Uploader: g.Uploader})
		}
		for p, lambda := range res.Prices {
			out.Prices[p] = lambda
		}
		for _, k := range []string{"bids", "iterations", "evictions", "gap", "stopped"} {
			out.Stats[k] += res.Stats[k]
		}
	}
	out.Stats["shards"] = float64(len(part.Shards))
	out.Stats["idle_uploaders"] = float64(len(part.IdleUploaders))
	return out
}

// TestShardedMigrations runs the cross-swarm churn trace, whose components
// merge, split and re-key across slots, so shards move to new indices and
// uploaders to new keys. Every slot, the orchestrator's reused partition
// must equal a fresh PartitionInstance, row tables included, each row's
// table entries must name its final shard, and the migrations counted must
// match a per-peer map of last slot's shard keys.
func TestShardedMigrations(t *testing.T) {
	a := &ShardedAuction{Epsilon: 0.01, Workers: 2}
	last := map[isp.PeerID]video.ID{}
	var total int64
	for slot, in := range crossSwarmSlots(t, 43, 24, 8, 6, 12) {
		out, err := a.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		got, want := a.part, PartitionInstance(in)
		if !slices.Equal(got.IdleUploaders, want.IdleUploaders) || !slices.Equal(got.Orphans, want.Orphans) ||
			!slices.Equal(got.shardOf, want.shardOf) || !slices.Equal(got.sinkOf, want.sinkOf) ||
			!slices.EqualFunc(got.Shards, want.Shards, func(x, y Shard) bool {
				return x.Key == y.Key && slices.Equal(x.Requests, y.Requests) && slices.Equal(x.Uploaders, y.Uploaders)
			}) {
			t.Fatalf("slot %d: the reused partition differs from a fresh PartitionInstance", slot)
		}
		cur := map[isp.PeerID]video.ID{}
		migrations, rows := 0, 0
		for s, sh := range got.Shards {
			for k, ui := range sh.Uploaders {
				if got.shardOf[ui] != int32(s) || got.sinkOf[ui] != int32(k) {
					t.Fatalf("slot %d: row %d of shard %v maps to shard %d, sink %d; want %d, %d",
						slot, ui, sh.Key, got.shardOf[ui], got.sinkOf[ui], s, k)
				}
				rows++
				peer := in.Uploaders[ui].Peer
				cur[peer] = sh.Key
				if prev, ok := last[peer]; ok && prev != sh.Key {
					migrations++
				}
			}
		}
		if rows+len(got.IdleUploaders) != len(in.Uploaders) {
			t.Fatalf("slot %d: %d shard rows and %d idle of %d uploaders", slot, rows, len(got.IdleUploaders), len(in.Uploaders))
		}
		last = cur
		total += int64(migrations)
		if out.Stats["migrations"] != float64(migrations) || a.Stats().Migrations != total {
			t.Fatalf("slot %d: migrations %v (total %d), per-peer oracle %d (total %d)",
				slot, out.Stats["migrations"], a.Stats().Migrations, migrations, total)
		}
	}
	if total == 0 {
		t.Fatal("the trace never migrated an uploader")
	}
}

// TestShardedScheduleAllocs pins the steady-state sharded round: once its
// arrays have grown, a Schedule allocates the same constant count at 6 and
// at 60 swarms, and nothing per shard: the Result, its grants slice, its
// Prices map, four allocations (a map of more than eight entries is a
// header, a directory, a table and its slots), and its eight-entry Stats
// map, two (a header and one group).
func TestShardedScheduleAllocs(t *testing.T) {
	const bound = 8
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, swarms := range []int{6, 60} {
		slots := buildSlots(41, 2, swarms, 30, 8, 0.3, false)
		a := &ShardedAuction{Epsilon: 0.01}
		round := func() {
			for _, in := range slots {
				if _, err := a.Schedule(in); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			round()
		}
		counts = append(counts, testing.AllocsPerRun(50, round)/float64(len(slots)))
	}
	t.Logf("allocations per sharded round at 6 / 60 swarms: %v", counts)
	if counts[0] != counts[1] || counts[1] > bound {
		t.Fatalf("a steady-state sharded round allocates %v / %v at 6 / 60 swarms, want equal and <= %d",
			counts[0], counts[1], bound)
	}
}

// coldEqualsMonolithic replays slots through a Builder and checks the
// orchestrator against one sched.Auction, both under deadline, on every
// slot. Past the deadline every shard must have stopped, and the merged
// gap must still be the whole instance's.
func coldEqualsMonolithic(t *testing.T, slots []*sched.Instance, workers int, deadline time.Time) {
	b := sched.NewBuilder()
	sharded := &ShardedAuction{Epsilon: 0.01, Workers: workers, Deadline: deadline}
	mono := &sched.Auction{Epsilon: 0.01, Deadline: deadline}
	for slot, raw := range slots {
		in := replay(t, b, raw)
		want, err := mono.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("slot %d", slot)
		sameOutcome(t, label, got, want)
		if !deadline.IsZero() {
			if got.Stats["stopped"] != got.Stats["shards"] || want.Stats["stopped"] != 1 {
				t.Fatalf("%s: %v of %v shards stopped (monolithic stopped %v) at a past deadline",
					label, got.Stats["stopped"], got.Stats["shards"], want.Stats["stopped"])
			}
			checkGap(t, label, in, got)
		}
	}
}

// replay feeds one instance through a Builder in its key order (uploaders
// by peer, requests by (peer, video, chunk)), so any instance trace becomes
// a Builder-produced sequence, as the simulator hands its schedulers.
func replay(t testing.TB, b *sched.Builder, in *sched.Instance) *sched.Instance {
	t.Helper()
	ups := slices.Clone(in.Uploaders)
	slices.SortFunc(ups, func(x, y sched.Uploader) int { return cmp.Compare(x.Peer, y.Peer) })
	reqs := slices.Clone(in.Requests)
	slices.SortFunc(reqs, func(x, y sched.Request) int {
		return cmp.Or(cmp.Compare(x.Peer, y.Peer), cmp.Compare(x.Chunk.Video, y.Chunk.Video),
			cmp.Compare(x.Chunk.Index, y.Chunk.Index))
	})
	b.Begin()
	rowOf := make(map[isp.PeerID]int32, len(ups))
	for _, u := range ups {
		row, err := b.AddUploader(u.Peer, u.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		rowOf[u.Peer] = row
	}
	for _, r := range reqs {
		b.StartRequest(r.Peer, r.Chunk, r.Value, r.Deadline)
		for _, c := range r.Candidates {
			b.AddCandidate(rowOf[c.Peer], c.Cost)
		}
		b.EndRequest()
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameOutcome fails unless got grants exactly want's grants (the sharded
// merge lists them in shard-key order, the monolithic solve in request
// order) at bit-equal prices.
func sameOutcome(t *testing.T, label string, got, want *sched.Result) {
	t.Helper()
	g := sortedGrants(got.Grants)
	if !slices.Equal(g, want.Grants) {
		t.Fatalf("%s: grants diverge from the monolithic auction's (%d vs %d)", label, len(g), len(want.Grants))
	}
	if !reflect.DeepEqual(got.Prices, want.Prices) {
		t.Fatalf("%s: prices diverge from the monolithic auction's", label)
	}
}

// sortedGrants returns grants in request order, the order a monolithic
// solve lists them in.
func sortedGrants(grants []sched.Grant) []sched.Grant {
	return slices.SortedFunc(slices.Values(grants), func(x, y sched.Grant) int {
		return cmp.Compare(x.Request, y.Request)
	})
}

// crossSwarmSlots generates a churn trace whose components merge, split
// and re-key across slots: a tenth of the candidate edges reach into the
// next swarm (welding the two swarms under the smaller video id until the
// edge goes), and uploaders sit out single slots (their edges vanish and
// return). Requests survive with their candidate lists intact, change
// them, re-value or depart, so carried, rewritten, moved and new rows all
// occur, inside a shard and between shards.
func crossSwarmSlots(t *testing.T, seed uint64, slots, swarms, upPer, reqPer int) []*sched.Instance {
	t.Helper()
	rng := randx.New(seed)
	type req struct {
		down  isp.PeerID
		chunk video.ChunkID
		value float64
		cands []isp.PeerID
	}
	upPeer := func(s, u int) isp.PeerID { return isp.PeerID(s*1000 + u) }
	cost := func(p isp.PeerID) float64 { return float64(int(p) % 3) }
	pick := func(s int) []isp.PeerID {
		var out []isp.PeerID
		for k := 1 + rng.Intn(3); k > 0; k-- {
			home := s
			if rng.Float64() < 0.1 {
				home = (s + 1) % swarms
			}
			p := upPeer(home, rng.Intn(upPer))
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
		return out
	}
	next := 0
	fresh := func(s int) req {
		next++
		return req{down: isp.PeerID(1_000_000 + next), chunk: video.ChunkID{Video: video.ID(s)},
			value: rng.Range(1, 8), cands: pick(s)}
	}
	reqs := make([][]req, swarms)
	for s := range reqs {
		for k := 0; k < reqPer; k++ {
			reqs[s] = append(reqs[s], fresh(s))
		}
	}
	var out []*sched.Instance
	for slot := 0; slot < slots; slot++ {
		if slot > 0 {
			for s := range reqs {
				for k := range reqs[s] {
					switch x := rng.Float64(); {
					case x < 0.08:
						reqs[s][k] = fresh(s)
					case x < 0.2:
						reqs[s][k].cands = pick(s)
					case x < 0.45:
						reqs[s][k].value = rng.Range(1, 8)
					}
				}
			}
		}
		present := map[isp.PeerID]bool{}
		var ups []sched.Uploader
		for s := 0; s < swarms; s++ {
			for u := 0; u < upPer; u++ {
				if slot == 0 || rng.Float64() >= 0.05 {
					ups = append(ups, sched.Uploader{Peer: upPeer(s, u), Capacity: 1 + rng.Intn(2)})
					present[upPeer(s, u)] = true
				}
			}
		}
		var rs []sched.Request
		for s := range reqs {
			for _, r := range reqs[s] {
				var cands []sched.Candidate
				for _, p := range r.cands {
					if present[p] {
						cands = append(cands, sched.Candidate{Peer: p, Cost: cost(p)})
					}
				}
				if len(cands) > 0 {
					rs = append(rs, sched.Request{Peer: r.down, Chunk: r.chunk, Value: r.value, Candidates: cands})
				}
			}
		}
		in, err := sched.NewInstance(rs, ups)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}
