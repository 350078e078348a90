package scenario

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestShardedEqualsMonolithicWelfarePerScenario is the sharding golden: for
// every registered sim scenario, replay the monolithic cold run's exact
// slot-instance sequence through the sharded orchestrator and demand equal
// welfare on every single solve, pinned at the same two levels as the
// warm-start golden (warm_test.go):
//
//   - the n·ε certificate band — with no ISP refinement the partition is
//     exact (no admissible edge crosses shards), so the union of per-shard
//     ε-CS certificates certifies the full problem and the two solves
//     bracket the same optimum;
//   - a 10⁻³ relative regression band, which catches real sharding defects
//     long before they dent the certificate.
//
// Bit-exact equality is a theorem only for integral weights with ε small
// enough; cluster's TestShardedBitEqualOnIntegralWeights pins that case.
func TestShardedEqualsMonolithicWelfarePerScenario(t *testing.T) {
	const seed = 42
	for _, spec := range All() {
		spec := spec
		if spec.Kind != KindSim {
			continue
		}
		boundHeavy(t, &spec, 500, 10)
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := spec.Sim
			cfg.Seed = seed
			rec := &recordingScheduler{inner: &sched.Auction{Epsilon: cfg.Epsilon}}
			if _, err := sim.Run(cfg, rec); err != nil {
				t.Fatal(err)
			}
			if len(rec.instances) == 0 {
				t.Fatal("run produced no slot instances")
			}
			sharded := &cluster.ShardedAuction{Epsilon: cfg.Epsilon, Workers: 4}
			solved, shardPeak := 0, 0.0
			for i, in := range rec.instances {
				res, err := sharded.Schedule(in)
				if err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
				if err := in.Validate(res.Grants); err != nil {
					t.Fatalf("solve %d: sharded grants infeasible: %v", i, err)
				}
				got, err := in.Welfare(res.Grants)
				if err != nil {
					t.Fatal(err)
				}
				want := rec.welfare[i]
				certBand := cfg.Epsilon*float64(len(in.Requests)) + 1e-9
				if diff := math.Abs(got - want); diff > certBand {
					t.Fatalf("solve %d (%d requests, %v shards): sharded welfare %v vs monolithic %v — Δ=%g exceeds the n·ε certificate band %g",
						i, len(in.Requests), res.Stats["shards"], got, want, diff, certBand)
				}
				if diff := math.Abs(got - want); diff > 1e-3*math.Max(1, math.Abs(want)) {
					t.Fatalf("solve %d (%d requests): sharded welfare %v drifted %g from monolithic %v (> 10⁻³ relative)",
						i, len(in.Requests), got, got-want, want)
				}
				if res.Stats["shards"] > shardPeak {
					shardPeak = res.Stats["shards"]
				}
				solved++
			}
			t.Logf("%d solves (peak %v shards), sharded welfare equals monolithic within the certificate band on every one",
				solved, shardPeak)
		})
	}
}

// TestShardedPresetMatchesMonolithicMetrics pins the registered sharded
// presets to their monolithic twins at the whole-run level, the same
// contract as the churn-warm preset test: per-slot tie-breaks may route
// chunks differently, but run-level welfare must agree closely.
func TestShardedPresetMatchesMonolithicMetrics(t *testing.T) {
	for _, name := range []string{"mega-swarm", "sharded-churn"} {
		shardedSpec, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		boundHeavy(t, &shardedSpec, 300, 5)
		monoSpec := shardedSpec.WithSolver(SolverAuction)
		shardedRes, err := shardedSpec.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		monoRes, err := monoSpec.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		if shardedRes.Metrics["grants"] == 0 {
			t.Fatalf("%s: sharded run scheduled nothing", name)
		}
		if shardedRes.Metrics["shards_mean"] <= 1 {
			t.Errorf("%s: shards_mean = %v — the workload never actually sharded",
				name, shardedRes.Metrics["shards_mean"])
		}
		rel := math.Abs(shardedRes.Metrics["welfare_per_slot"]-monoRes.Metrics["welfare_per_slot"]) /
			math.Max(1, math.Abs(monoRes.Metrics["welfare_per_slot"]))
		if rel > 0.05 {
			t.Fatalf("%s: sharded welfare/slot %v drifted %.1f%% from monolithic %v",
				name, shardedRes.Metrics["welfare_per_slot"], 100*rel, monoRes.Metrics["welfare_per_slot"])
		}
	}
}

// TestShardingValidation pins the plumbing: the sharded orchestrator is a
// sim solver of its own, sized by Spec.Sharding, and the sharding sweep key
// maps onto it.
func TestShardingValidation(t *testing.T) {
	spec := mustGet(t, "churn").WithSolver(SolverAuctionSharded)
	for _, p := range []struct {
		key string
		val float64
	}{{"shard-workers", 4}, {"shard-max", 2000}} {
		if err := ApplyParam(&spec, p.key, p.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("sharded churn should validate: %v", err)
	}
	s, err := spec.Scheduler(spec.Sim)
	if err != nil {
		t.Fatal(err)
	}
	sa, ok := s.(*cluster.ShardedAuction)
	if !ok || sa.Workers != 4 || sa.MaxShardPeers != 2000 {
		t.Fatalf("auction-sharded built %T %+v, want a 4-worker ShardedAuction refining above 2000 peers", s, s)
	}
	testVariantSweepKey(t, "sharding", SolverAuctionSharded, SolverAuctionWarm)
}

// shardRecorder forwards to a ShardedAuction and keeps every result. On its
// own it hides sched.DeltaScheduler, so the simulator calls Schedule and
// every shard derives its delta by key; deltaRecorder exposes the delta path.
type shardRecorder struct {
	inner   *cluster.ShardedAuction
	results []*sched.Result
}

func (r *shardRecorder) Name() string { return r.inner.Name() }

func (r *shardRecorder) SetISPLookup(f func(isp.PeerID) (isp.ID, bool)) { r.inner.SetISPLookup(f) }

func (r *shardRecorder) Schedule(in *sched.Instance) (*sched.Result, error) {
	return r.keep(r.inner.Schedule(in))
}

func (r *shardRecorder) keep(res *sched.Result, err error) (*sched.Result, error) {
	if err == nil {
		r.results = append(r.results, res)
	}
	return res, err
}

type deltaRecorder struct{ shardRecorder }

func (r *deltaRecorder) ScheduleDelta(in *sched.Instance, d *sched.InstanceDelta) (*sched.Result, error) {
	return r.keep(r.inner.ScheduleDelta(in, d))
}

// TestShardedProjectedDeltasEqualDerivedPerPreset is the preset-level
// differential test of the per-shard delta projection: the sharded presets'
// Builder-produced churn, fed through ScheduleDelta (dirty shards take the
// producer's delta projected onto their rows) and through Schedule on a
// second orchestrator (every shard derives its delta by key), must give
// bit-equal grants, prices and stats on every solve, and equal runs. These
// presets grant nearly every request in the round it is issued, so their
// projections carry uploaders but hardly any request; the cluster
// package's TestShardedProjectedDeltasEqualDerived covers carried,
// rewritten and migrating requests.
func TestShardedProjectedDeltasEqualDerivedPerPreset(t *testing.T) {
	for _, name := range []string{"sharded-churn", "mega-swarm"} {
		spec := mustGet(t, name)
		boundHeavy(t, &spec, 400, 8)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := spec.Sim
			cfg.Seed = 3
			cfg.Slots = 30 // the presets' own runs are 2–10 slots: too few deltas
			newSharded := func() *cluster.ShardedAuction {
				s, err := spec.Scheduler(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return s.(*cluster.ShardedAuction)
			}
			viaDelta := &deltaRecorder{shardRecorder{inner: newSharded()}}
			viaKey := &shardRecorder{inner: newSharded()}
			gotRun, err := sim.Run(cfg, viaDelta)
			if err != nil {
				t.Fatal(err)
			}
			wantRun, err := sim.Run(cfg, viaKey)
			if err != nil {
				t.Fatal(err)
			}
			if len(viaDelta.results) != len(viaKey.results) || len(viaDelta.results) == 0 {
				t.Fatalf("%d solves via deltas, %d by key", len(viaDelta.results), len(viaKey.results))
			}
			for i, got := range viaDelta.results {
				want := viaKey.results[i]
				if !reflect.DeepEqual(got.Grants, want.Grants) {
					t.Fatalf("solve %d: grants diverge", i)
				}
				if !reflect.DeepEqual(got.Prices, want.Prices) {
					t.Fatalf("solve %d: prices diverge", i)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Fatalf("solve %d: stats diverge:\n got %v\nwant %v", i, got.Stats, want.Stats)
				}
			}
			if !reflect.DeepEqual(gotRun, wantRun) {
				t.Fatal("run results diverge")
			}
			projected := viaDelta.inner.Stats().ProjectedDeltas
			if projected == 0 {
				t.Fatal("no shard ever took a projected delta")
			}
			t.Logf("%d solves, %d projected shard deltas", len(viaDelta.results), projected)
		})
	}
}
