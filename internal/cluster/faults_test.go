package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/randx"
	"repro/internal/sched"
)

// TestShardedSlowSolverInjection: the fault layer's slow-solver wrapper
// composes with the per-shard solver factory — a drill can make individual
// shards lag without touching the orchestrator — and the grants are exactly
// those of the default solvers (the wrapper only adds latency).
func TestShardedSlowSolverInjection(t *testing.T) {
	const eps = 0.01
	slots := buildSlots(3, 4, 3, 20, 6, 0.1, false)
	spec := fault.Spec{SolveDelay: time.Millisecond}
	slow := &ShardedAuction{Epsilon: eps, Workers: 2,
		NewSolver: func(key Key, rng *randx.Source) sched.Scheduler {
			return fault.Slow(&sched.Auction{Epsilon: eps}, spec)
		}}
	clean := &ShardedAuction{Epsilon: eps, Workers: 2}
	for i, in := range slots {
		start := time.Now()
		sres, err := slow.Schedule(in)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if time.Since(start) < spec.SolveDelay {
			t.Fatalf("slot %d: injected delay did not fire", i)
		}
		cres, err := clean.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(cres.Grants) == 0 {
			t.Fatalf("slot %d: nothing granted; the fixture is vacuous", i)
		}
		if !reflect.DeepEqual(sres.Grants, cres.Grants) {
			t.Fatalf("slot %d: slow solvers changed the grants", i)
		}
	}
}
