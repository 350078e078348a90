package scenario

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestShardedEqualsMonolithicWelfarePerScenario is the sharding golden: for
// every registered sim scenario, run the seed-42 simulation through the
// sharded orchestrator and solve every slot instance a second time with one
// monolithic cold auction; the two must grant exactly the same requests to
// the same uploaders at bit-equal prices on every single solve. The
// partition is exact (no admissible edge crosses shards), and the cold
// auction's FIFO bid queue restricted to an independent component is that
// component's own queue, so each shard replays its part of the monolithic
// solve bid for bid.
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
			twin := &coldTwin{
				sharded: &cluster.ShardedAuction{Epsilon: cfg.Epsilon, Workers: 4},
				mono:    sched.Auction{Epsilon: cfg.Epsilon},
			}
			if _, err := sim.Run(cfg, twin); err != nil {
				t.Fatal(err)
			}
			if twin.solves == 0 {
				t.Fatal("run produced no slot instances")
			}
			t.Logf("%d solves (peak %v shards), sharded grants and prices equal monolithic on every one",
				twin.solves, twin.shardPeak)
		})
	}
}

// coldTwin hands the simulator the sharded orchestrator's result for every
// slot instance after solving it a second time with one monolithic
// sched.Auction, and fails the run at the first solve whose grants or
// prices differ.
type coldTwin struct {
	sharded   *cluster.ShardedAuction
	mono      sched.Auction
	solves    int
	shardPeak float64
}

func (c *coldTwin) Name() string { return c.sharded.Name() }

func (c *coldTwin) Schedule(in *sched.Instance) (*sched.Result, error) {
	res, err := c.sharded.Schedule(in)
	return c.check(in, res, err)
}

func (c *coldTwin) check(in *sched.Instance, got *sched.Result, err error) (*sched.Result, error) {
	if err != nil {
		return nil, err
	}
	want, err := c.mono.Schedule(in)
	if err != nil {
		return nil, err
	}
	if err := in.Validate(got.Grants); err != nil {
		return nil, fmt.Errorf("solve %d: sharded grants infeasible: %w", c.solves, err)
	}
	grants := slices.SortedFunc(slices.Values(got.Grants), func(x, y sched.Grant) int {
		return cmp.Compare(x.Request, y.Request)
	})
	if !slices.Equal(grants, want.Grants) {
		return nil, fmt.Errorf("solve %d (%d requests, %v shards): %d sharded grants diverge from the monolithic auction's %d",
			c.solves, len(in.Requests), got.Stats["shards"], len(grants), len(want.Grants))
	}
	if !reflect.DeepEqual(got.Prices, want.Prices) {
		return nil, fmt.Errorf("solve %d (%d requests, %v shards): sharded prices diverge from the monolithic auction's",
			c.solves, len(in.Requests), got.Stats["shards"])
	}
	c.solves++
	c.shardPeak = max(c.shardPeak, got.Stats["shards"])
	return got, nil
}

// TestShardedPresetMatchesMonolithicMetrics pins the registered sharded
// presets to their monolithic twins at the whole-run level: per-slot
// tie-breaks may route chunks differently, but run-level welfare must
// agree closely.
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
	if err := ApplyParam(&spec, "shard-workers", 4); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("sharded churn should validate: %v", err)
	}
	s, err := spec.Scheduler(spec.Sim)
	if err != nil {
		t.Fatal(err)
	}
	sa, ok := s.(*cluster.ShardedAuction)
	if !ok || sa.Workers != 4 {
		t.Fatalf("auction-sharded built %T %+v, want a 4-worker ShardedAuction", s, s)
	}
	// The sharding key: 1 turns the auction into the sharded variant and 0
	// turns it back; 1 on any other solver is an error, and 0 leaves other
	// solvers alone.
	for _, c := range []struct {
		from    Solver
		v       float64
		want    Solver
		wantErr bool
	}{
		{SolverAuction, 1, SolverAuctionSharded, false},
		{SolverAuctionSharded, 1, SolverAuctionSharded, false},
		{SolverAuctionSharded, 0, SolverAuction, false},
		{SolverAuction, 0, SolverAuction, false},
		{SolverLocality, 0, SolverLocality, false},
		{SolverExact, 0, SolverExact, false},
		{SolverExact, 1, SolverExact, true},
		{SolverLocality, 1, SolverLocality, true},
		{SolverAuctionDES, 1, SolverAuctionDES, true},
	} {
		spec := mustGet(t, "churn").WithSolver(c.from)
		err := ApplyParam(&spec, "sharding", c.v)
		if (err != nil) != c.wantErr {
			t.Errorf("sharding=%v on %s: err = %v, want error %v", c.v, c.from, err, c.wantErr)
		}
		if spec.Solver != c.want {
			t.Errorf("sharding=%v on %s: solver = %s, want %s", c.v, c.from, spec.Solver, c.want)
		}
	}
}

// TestShardedColdEqualsMonolithicPerPreset runs the sharded presets as they
// ship — the orchestrator the preset builds, over 30 slots of the
// simulator's Builder-produced instances — and demands the same
// bit-equality with one monolithic sched.Auction on every solve as the
// per-scenario golden. The cluster package's TestShardedColdEqualsMonolithic
// covers carried, rewritten and migrating requests on synthetic churn.
func TestShardedColdEqualsMonolithicPerPreset(t *testing.T) {
	for _, name := range []string{"sharded-churn", "mega-swarm"} {
		spec := mustGet(t, name)
		boundHeavy(t, &spec, 400, 8)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := spec.Sim
			cfg.Seed = 3
			cfg.Slots = 30 // the presets' own runs are 2–10 slots: too little churn
			s, err := spec.Scheduler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin := &coldTwin{
				sharded: s.(*cluster.ShardedAuction),
				mono:    sched.Auction{Epsilon: cfg.Epsilon},
			}
			if _, err := sim.Run(cfg, twin); err != nil {
				t.Fatal(err)
			}
			if twin.shardPeak <= 1 {
				t.Fatalf("peak %v shards: the workload never sharded", twin.shardPeak)
			}
			t.Logf("%d solves, grants and prices equal monolithic on every one", twin.solves)
		})
	}
}
