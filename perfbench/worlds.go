package main

import (
	"fmt"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// preset returns a registered scenario's simulator config under seed, with
// a horizon the benchmark never reaches (it stops the run itself).
func preset(name string, seed uint64) (sim.Config, error) {
	spec, ok := scenario.Get(name)
	if !ok {
		return sim.Config{}, fmt.Errorf("scenario %q is not registered", name)
	}
	cfg := spec.Sim
	cfg.Seed = seed
	cfg.Slots = 1 << 30
	return cfg, nil
}

// cdnCold is the cdn-assist world scaled up, solved by the cold per-round
// auction every non-warm preset uses. Static peers are replaced as they
// finish, so the population is stationary once the warm-up has filled the
// edge caches.
var cdnCold = simWorkload{
	config: func(seed uint64) (sim.Config, error) {
		cfg, err := preset("cdn-assist", seed)
		cfg.StaticPeers = 400
		// One bidding round per slot: every round then does the same work
		// (neighbor refresh, build, solve, apply, playback), so round times
		// are one population rather than a mix of two sizes.
		cfg.BidRoundsPerSlot = 1
		return cfg, err
	},
	scheduler: func(cfg sim.Config) sched.Scheduler {
		return &sched.Auction{Epsilon: cfg.Epsilon}
	},
	warmupSlots: 10,
}

// swarmsSharded is the sharded-churn world at an arrival rate whose
// departures balance arrivals within the warm-up, solved by the sharded
// orchestrator with one worker per CPU.
var swarmsSharded = simWorkload{
	config: func(seed uint64) (sim.Config, error) {
		cfg, err := preset("sharded-churn", seed)
		cfg.ArrivalPerSec = 100
		cfg.Catalog.SizeMB = 1
		return cfg, err
	},
	scheduler: func(cfg sim.Config) sched.Scheduler {
		return &cluster.ShardedAuction{Epsilon: cfg.Epsilon, Workers: runtime.NumCPU(), Seed: cfg.Seed}
	},
	warmupSlots: 20,
}
