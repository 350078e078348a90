package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/isp"
	"repro/internal/sched"
)

// goldenMetrics is the aggregate fingerprint the pre-refactor pipeline
// produced (captured from the slice-delete, map-grouping, from-scratch
// implementation at the seed of this change). The incremental pipeline —
// tombstoned order, persistent builder instance, scratch-buffer transfers —
// must reproduce every value bit for bit.
type goldenMetrics struct {
	grants, inter, missed, played, joined, departed int64
	welfare, payments                               float64
}

func fingerprint(res *Results) goldenMetrics {
	wsum := 0.0
	for _, p := range res.Welfare.Points {
		wsum += p.V
	}
	return goldenMetrics{
		grants: res.TotalGrants, inter: res.TotalInterISP,
		missed: res.TotalMissed, played: res.TotalPlayed,
		joined: res.Joined, departed: res.Departed,
		welfare: wsum, payments: res.TotalPayments,
	}
}

// churnTestConfig is testConfig under heavy churn: 70% early leavers at two
// arrivals per second, the workload that hammers removePeer.
func churnTestConfig() Config {
	cfg := testConfig()
	cfg.Scenario = ScenarioDynamic
	cfg.Slots = 10
	cfg.ArrivalPerSec = 2
	cfg.EarlyLeaveProb = 0.7
	return cfg
}

// TestRemovalSchemeGolden pins the whole incremental pipeline — including
// the tombstone + index-map removal scheme — against metric fingerprints
// captured from the original implementation. Any drift in iteration order,
// instance content, grant serialization or delivery accounting shows up
// here as a changed aggregate.
func TestRemovalSchemeGolden(t *testing.T) {
	cases := []struct {
		name  string
		run   func() (*Results, error)
		want  goldenMetrics
		exact bool
	}{
		{
			name: "static-auction",
			run: func() (*Results, error) {
				cfg := testConfig()
				return Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
			},
			want: goldenMetrics{grants: 12893, inter: 0, missed: 336, played: 13079,
				joined: 154, departed: 94, welfare: 14213.507740307754, payments: 62.297344504941016},
		},
		{
			name: "churn-auction",
			run: func() (*Results, error) {
				cfg := churnTestConfig()
				return Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
			},
			want: goldenMetrics{grants: 32022, inter: 0, missed: 1481, played: 31920,
				joined: 235, departed: 162, welfare: 34138.834852541171, payments: 434.08290945221643},
		},
		{
			name: "churn-locality",
			run: func() (*Results, error) {
				cfg := churnTestConfig()
				return Run(cfg, &baseline.Locality{Rounds: cfg.LocalityRounds})
			},
			want: goldenMetrics{grants: 33945, inter: 0, missed: 222, played: 31920,
				joined: 235, departed: 162, welfare: 25741.746790636324, payments: 0},
		},
		{
			name: "des-static",
			run: func() (*Results, error) {
				cfg := testConfig()
				cfg.StaticPeers = 12
				cfg.Slots = 3
				cfg.NeighborCount = 6
				cfg.WindowChunks = 20
				return Run(cfg, &DES{})
			},
			want: goldenMetrics{grants: 2166, inter: 0, missed: 533, played: 2699,
				joined: 58, departed: 16, welfare: 4716.7287789874181, payments: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res); got != tc.want {
				t.Fatalf("pipeline drifted from the pre-refactor golden:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestRunEqualsRunRebuild is the run-level equivalence golden: the
// incremental pipeline and the from-scratch reference produce deep-equal
// results for every scheduler archetype, on static and churn worlds.
func TestRunEqualsRunRebuild(t *testing.T) {
	type mk func(cfg Config) sched.Scheduler
	schedulers := map[string]mk{
		"auction": func(cfg Config) sched.Scheduler { return &sched.Auction{Epsilon: cfg.Epsilon} },
		"sharded": func(cfg Config) sched.Scheduler {
			return &cluster.ShardedAuction{Epsilon: cfg.Epsilon, Workers: 2, Seed: cfg.Seed}
		},
		"locality": func(cfg Config) sched.Scheduler { return &baseline.Locality{Rounds: cfg.LocalityRounds} },
	}
	worlds := map[string]Config{
		"static": testConfig(),
		"churn":  churnTestConfig(),
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
					t.Fatalf("incremental and rebuilt pipelines diverge:\n inc %+v\n ref %+v",
						fingerprint(inc), fingerprint(ref))
				}
			})
		}
	}
}

// TestIncrementalInstanceEqualsRebuilt pins slot-by-slot, round-by-round
// instance equivalence: the builder-maintained instance must be
// content-identical to a from-scratch build of the same world state, on a
// churn world (arrivals and departures included). The worlds advance under
// the cold auction so both sides see identical grant histories.
func TestIncrementalInstanceEqualsRebuilt(t *testing.T) {
	cfg := churnTestConfig()
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheduler := &sched.Auction{Epsilon: cfg.Epsilon}
	for slot := 0; slot < cfg.Slots; slot++ {
		w.slot = slot
		w.refreshNeighbors()
		var out slotOutcome
		for j := 0; j < cfg.BidRoundsPerSlot; j++ {
			ref, err := w.buildInstanceRebuild(j)
			if err != nil {
				t.Fatal(err)
			}
			in, err := w.buildInstance(j)
			if err != nil {
				t.Fatal(err)
			}
			delta := w.builder.Delta()
			if !reflect.DeepEqual(in.Requests, ref.Requests) {
				for ri := range ref.Requests {
					if ri >= len(in.Requests) || !reflect.DeepEqual(in.Requests[ri], ref.Requests[ri]) {
						t.Fatalf("slot %d round %d: request %d diverges:\n inc %+v\n ref %+v",
							slot, j, ri, in.Requests[ri], ref.Requests[ri])
					}
				}
				t.Fatalf("slot %d round %d: %d incremental requests, %d rebuilt",
					slot, j, len(in.Requests), len(ref.Requests))
			}
			if !reflect.DeepEqual(in.Uploaders, ref.Uploaders) {
				t.Fatalf("slot %d round %d: uploaders diverge", slot, j)
			}
			if slot+j > 0 && delta == nil {
				t.Fatalf("slot %d round %d: builder yielded no delta", slot, j)
			}
			sr, err := scheduler.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.applyGrants(j, in, sr.Grants, &out); err != nil {
				t.Fatal(err)
			}
		}
		w.playback(&out)
		w.clearDelivered()
		if err := finishSlot(w, &out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScratchBuffersRaceHammer drives sharded scheduling — the one place
// the pipeline's reused buffers are read concurrently (worker-pool shard
// solves subset the builder's arena-backed instance) — under the race
// detector, across parallel independent runs.
func TestScratchBuffersRaceHammer(t *testing.T) {
	cfg := churnTestConfig()
	cfg.Slots = 6
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c := cfg
			c.Seed = seed
			res, err := Run(c, &cluster.ShardedAuction{Epsilon: c.Epsilon, Workers: 8, Seed: seed})
			if err != nil {
				t.Error(err)
				return
			}
			if res.TotalGrants == 0 {
				t.Error("sharded churn run scheduled nothing")
			}
		}(uint64(40 + i))
	}
	wg.Wait()
}

// TestRemovePeerOrderInvariants unit-tests the tombstone scheme: ascending
// live order, index map coherence, and compaction preserving relative
// order under interleaved joins and departures.
func TestRemovePeerOrderInvariants(t *testing.T) {
	cfg := testConfig()
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		last := noPeer
		live := 0
		for i, id := range w.order {
			if id == noPeer {
				continue
			}
			live++
			if id <= last {
				t.Fatalf("order not ascending at %d: %d after %d", i, id, last)
			}
			last = id
			p := w.peers[id]
			if p == nil {
				t.Fatalf("order lists %d but peers does not", id)
			}
			if int(p.orderIdx) != i {
				t.Fatalf("peer %d orderIdx = %d; want %d", id, p.orderIdx, i)
			}
		}
		peers := 0
		for id, p := range w.peers {
			if p != nil {
				peers++
				if p.id != isp.PeerID(id) {
					t.Fatalf("peers[%d] holds peer %d", id, p.id)
				}
			}
		}
		if live != peers {
			t.Fatalf("%d live order entries, %d peers", live, peers)
		}
	}
	check()
	// Interleave departures (every third watcher) with arrivals, enough to
	// trigger several compactions.
	for round := 0; round < 8; round++ {
		var victims []isp.PeerID
		k := 0
		for _, id := range w.order {
			if id == noPeer || w.peers[id].seed {
				continue
			}
			if k%3 == 0 {
				victims = append(victims, id)
			}
			k++
		}
		for _, v := range victims {
			w.removePeer(v)
		}
		for i := 0; i < 5; i++ {
			if err := w.spawnStaticPeer(); err != nil {
				t.Fatal(err)
			}
		}
		check()
	}
}
