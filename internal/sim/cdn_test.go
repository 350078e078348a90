package sim

import (
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/cdn"
	"repro/internal/cluster"
	"repro/internal/isp"
	"repro/internal/sched"
)

// cdnTestConfig is testConfig with the calibrated hybrid CDN tier switched
// on: one origin plus one edge per ISP join every slot as always-on bidders.
func cdnTestConfig() Config {
	cfg := testConfig()
	cfg.CDN = cdn.DefaultSpec()
	return cfg
}

func TestConfigValidateCDN(t *testing.T) {
	cfg := cdnTestConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("CDN config invalid: %v", err)
	}
	cfg.CDN.OriginChunksPerSlot = 0
	if err := cfg.Validate(); err == nil {
		t.Error("Config.Validate accepted a broken CDN spec")
	}
}

// TestCDNRunEqualsRunRebuild extends the pipeline-equivalence golden to
// CDN-enabled worlds: the incremental builder's carried candidate lists must
// stay bit-identical to a from-scratch rebuild with CDN bidders present, for
// the monolithic and sharded auction paths.
func TestCDNRunEqualsRunRebuild(t *testing.T) {
	type mk func(cfg Config) sched.Scheduler
	schedulers := map[string]mk{
		"auction": func(cfg Config) sched.Scheduler { return &sched.Auction{Epsilon: cfg.Epsilon} },
		"sharded": func(cfg Config) sched.Scheduler {
			return &cluster.ShardedAuction{Epsilon: cfg.Epsilon, Workers: 2, Seed: cfg.Seed}
		},
	}
	churn := churnTestConfig()
	churn.CDN = cdn.DefaultSpec()
	worlds := map[string]Config{
		"static": cdnTestConfig(),
		"churn":  churn,
	}
	for wname, cfg := range worlds {
		for sname, make := range schedulers {
			cfg := cfg
			t.Run(wname+"/"+sname, func(t *testing.T) {
				t.Parallel()
				inc, err := Run(cfg, make(cfg))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := RunRebuild(cfg, make(cfg))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(inc, ref) {
					t.Fatalf("incremental and rebuilt pipelines diverge with CDN:\n inc %+v\n ref %+v",
						fingerprint(inc), fingerprint(ref))
				}
			})
		}
	}
}

// TestCDNCounterInvariants pins the tier accounting identities every
// CDN-enabled run must satisfy.
func TestCDNCounterInvariants(t *testing.T) {
	cfg := cdnTestConfig()
	res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedP2P+res.ServedEdge+res.ServedOrigin != res.TotalGrants {
		t.Errorf("tiers %d+%d+%d != total grants %d",
			res.ServedP2P, res.ServedEdge, res.ServedOrigin, res.TotalGrants)
	}
	if res.EdgeCacheHits+res.EdgeCacheMisses != res.ServedEdge {
		t.Errorf("cache hits %d + misses %d != edge served %d",
			res.EdgeCacheHits, res.EdgeCacheMisses, res.ServedEdge)
	}
	if res.BackhaulChunks != res.EdgeCacheMisses {
		t.Errorf("backhaul %d != edge misses %d (one fill per miss)",
			res.BackhaulChunks, res.EdgeCacheMisses)
	}
	if res.ServedP2P == 0 {
		t.Error("hybrid run served nothing P2P — CDN fees undercut every peer")
	}
	c := res.TierCounts()
	if c.P2PChunks != res.ServedP2P || c.EdgeChunks != res.ServedEdge ||
		c.OriginChunks != res.ServedOrigin || c.BackhaulChunks != res.BackhaulChunks ||
		c.EdgeHits != res.EdgeCacheHits || c.EdgeMisses != res.EdgeCacheMisses {
		t.Errorf("TierCounts() %+v does not mirror Results counters", c)
	}
}

// TestCDNDisabledLeavesCountersZero pins that a plain run never touches the
// tier counters: the zero Spec is bit-identical to the pre-CDN pipeline.
func TestCDNDisabledLeavesCountersZero(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServedEdge != 0 || res.ServedOrigin != 0 || res.EdgeCacheHits != 0 ||
		res.EdgeCacheMisses != 0 || res.BackhaulChunks != 0 {
		t.Errorf("disabled CDN recorded tier traffic: %+v", res.TierCounts())
	}
	if res.ServedP2P != res.TotalGrants {
		t.Errorf("ServedP2P %d != TotalGrants %d on a pure P2P run",
			res.ServedP2P, res.TotalGrants)
	}
}

// TestCDNOnlyBaseline pins the CDN-only ablation: with P2P candidates
// suppressed, every grant is CDN-served and CDN traffic stays out of the
// inter-ISP accounting (it is billed by ComputeOffload, not transit).
func TestCDNOnlyBaseline(t *testing.T) {
	cfg := cdnTestConfig()
	cfg.CDN.Only = true
	res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGrants == 0 {
		t.Fatal("CDN-only run granted nothing")
	}
	if res.ServedP2P != 0 {
		t.Errorf("CDN-only run served %d chunks P2P", res.ServedP2P)
	}
	if res.ServedEdge+res.ServedOrigin != res.TotalGrants {
		t.Errorf("CDN tiers %d+%d != grants %d",
			res.ServedEdge, res.ServedOrigin, res.TotalGrants)
	}
	if res.TotalInterISP != 0 {
		t.Errorf("CDN traffic leaked into the inter-ISP counter: %d", res.TotalInterISP)
	}
}

func TestCDNDeterminism(t *testing.T) {
	cfg := cdnTestConfig()
	run := func() *Results {
		res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TierCounts() != b.TierCounts() {
		t.Fatalf("non-deterministic tier counters: %+v vs %+v", a.TierCounts(), b.TierCounts())
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CDN runs with the same seed diverge")
	}
}

// TestDESRunsCDN: CDN servers are protocol nodes in no swarm, so a
// CDN-enabled world runs under the message-level auction, reproducibly, with
// every grant counted in exactly one tier and some served by the CDN.
func TestDESRunsCDN(t *testing.T) {
	cfg := desConfig()
	cfg.CDN = cdn.DefaultSpec()
	run := func() *Results {
		res, err := runDES(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CDN runs under auction-des with the same seed diverge")
	}
	if a.TotalGrants == 0 {
		t.Fatal("distributed auction granted nothing on a CDN world")
	}
	if a.ServedP2P+a.ServedEdge+a.ServedOrigin != a.TotalGrants {
		t.Fatalf("tier split %d+%d+%d != %d grants",
			a.ServedP2P, a.ServedEdge, a.ServedOrigin, a.TotalGrants)
	}
	if a.ServedEdge+a.ServedOrigin == 0 {
		t.Fatal("no chunk was served by the CDN tier")
	}
}

// TestBuildInstanceAllocs pins the allocations of one neighbor refresh plus
// one instance build on a static world shaped like the cdn-assist preset
// (60 watchers, 6 videos, 8 neighbors, one global seed per video, the CDN
// tier on), with no population change between rounds. Builder arrays, the
// window scratch and the neighbor-cost slab are all reused, so a round
// allocates nothing once they have grown: 0 measured. Per-peer cost slices
// coming back would show here as one allocation per watcher per refresh.
// The collector is paused while counting.
func TestBuildInstanceAllocs(t *testing.T) {
	const want = 0
	cfg := cdnTestConfig()
	cfg.StaticPeers = 60
	cfg.Catalog.Count = 6
	cfg.NeighborCount = 8
	cfg.SeedsPerVideo = 1
	cfg.Placement = SeedsGlobal
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var requests int
	round := func() {
		w.refreshNeighbors()
		in, err := w.buildInstance(0)
		if err != nil {
			t.Fatal(err)
		}
		requests = len(in.Requests)
	}
	// Both halves of the builder's double buffer grow to size first.
	for range 4 {
		round()
	}
	got := testing.AllocsPerRun(20, round)
	if requests == 0 {
		t.Fatal("the world built an empty instance")
	}
	if got != want {
		t.Fatalf("refresh + buildInstance allocates %v per round, want %d", got, want)
	}
}

// TestPlaybackAllocs pins a steady-state playback on the same world as
// TestBuildInstanceAllocs, after one bidding round has left delivery
// records on the receiving watchers: reading each watcher's deliveries
// into the reused per-offset scratch allocates nothing. Each counted run
// restores the playback fronts it advanced, so every run plays the same
// chunks. The collector is paused while counting.
func TestPlaybackAllocs(t *testing.T) {
	const want = 0
	cfg := cdnTestConfig()
	cfg.StaticPeers = 60
	cfg.Catalog.Count = 6
	cfg.NeighborCount = 8
	cfg.SeedsPerVideo = 1
	cfg.Placement = SeedsGlobal
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.buildInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&sched.Auction{Epsilon: cfg.Epsilon}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	var out slotOutcome
	if err := w.applyGrants(0, in, res.Grants, &out); err != nil {
		t.Fatal(err)
	}
	if len(w.deliveredPeers) == 0 {
		t.Fatal("the round delivered nothing; the pin is vacuous")
	}
	pos := make([]int, len(w.peers))
	departures := make([]isp.PeerID, 0, len(w.peers))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	play := func() {
		for _, id := range w.order {
			pos[id] = w.peers[id].pos
		}
		w.playback(&slotOutcome{departures: departures[:0]})
		for _, id := range w.order {
			w.peers[id].pos = pos[id]
		}
	}
	play()
	if got := testing.AllocsPerRun(20, play); got != want {
		t.Fatalf("playback allocates %v per slot, want %d", got, want)
	}
}

// TestApplyGrantsAllocs pins a steady-state grant application on the same
// world as TestBuildInstanceAllocs: resolving, ordering and serving one
// round's grants runs in world scratch, so once the buffers have grown a
// round allocates nothing. Each counted run clears the delivery records it
// left, so every run serves the same grants onto the same lists. The
// collector is paused while counting.
func TestApplyGrantsAllocs(t *testing.T) {
	const want = 0
	cfg := cdnTestConfig()
	cfg.StaticPeers = 60
	cfg.Catalog.Count = 6
	cfg.NeighborCount = 8
	cfg.SeedsPerVideo = 1
	cfg.Placement = SeedsGlobal
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.buildInstance(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&sched.Auction{Epsilon: cfg.Epsilon}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) == 0 {
		t.Fatal("the round granted nothing; the pin is vacuous")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	apply := func() {
		var out slotOutcome
		if err := w.applyGrants(0, in, res.Grants, &out); err != nil {
			t.Fatal(err)
		}
		w.clearDelivered()
	}
	apply()
	if got := testing.AllocsPerRun(20, apply); got != want {
		t.Fatalf("applyGrants allocates %v per round, want %d", got, want)
	}
}
