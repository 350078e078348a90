package cluster

import (
	"math"
	"reflect"
	"testing"

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

// TestShardedBitEqualOnIntegralWeights pins the exact-equality theorem: with
// integral values/costs and ε small enough, both the monolithic and every
// per-shard auction land on the unique optimal welfare, so the sharded total
// is bit-equal to the monolithic one.
func TestShardedBitEqualOnIntegralWeights(t *testing.T) {
	const eps = 1e-3
	slots := buildSlots(11, 6, 4, 30, 8, 0.2, true)
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
		got, _ := in.Welfare(sres.Grants)
		want, _ := in.Welfare(cres.Grants)
		if got != want {
			t.Fatalf("slot %d: sharded welfare %v != monolithic %v (bit-equality expected on integral weights)",
				i, got, want)
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

// TestShardedSelfCheckRefinement runs the orchestrator with ISP-affinity
// refinement forced on and the referee armed: the per-shard certificate must
// hold even though the partition is no longer exact, and edges must actually
// be cut.
func TestShardedSelfCheckRefinement(t *testing.T) {
	slots := buildSlots(17, 5, 2, 60, 12, 0.15, false)
	a := &ShardedAuction{Epsilon: 0.01, Workers: 2, MaxShardPeers: 30, SelfCheck: true}
	a.SetISPLookup(func(p isp.PeerID) (isp.ID, bool) { return isp.ID(int(p) % 3), true })
	for i, in := range slots {
		if _, err := a.Schedule(in); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	if a.Stats().CutEdges == 0 {
		t.Fatal("refinement never cut an edge; the scenario is not exercising the refined path")
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

// TestShardedPerShardStreamsStable pins the per-shard randomness contract: a
// shard's stream depends only on (Seed, Key) — the same key yields the same
// stream regardless of how many shards exist or when it was born.
func TestShardedPerShardStreamsStable(t *testing.T) {
	root := randx.New(42)
	k := Key{Video: 7, ISP: NoISP}
	a := root.Derive(k.seedLabel())
	// A different root position or other derivations must not disturb it.
	root2 := randx.New(42)
	_ = root2.Derive(Key{Video: 1, ISP: NoISP}.seedLabel())
	_ = root2.Derive(Key{Video: 3, ISP: 2}.seedLabel())
	b := root2.Derive(k.seedLabel())
	for i := 0; i < 8; i++ {
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("draw %d: stream for %+v not stable: %x vs %x", i, k, got, want)
		}
	}
	if (Key{Video: 7, ISP: 0}).seedLabel() == k.seedLabel() {
		t.Error("ISP slice shares a seed label with its unrefined shard")
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
