package cluster

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestShardedSlowSolverInjection: the fault layer's slow-solver wrapper
// composes with the sharded orchestrator — a drill can make the sharded
// solve lag without touching its shards — and the grants and prices are
// exactly those of an unwrapped orchestrator (the wrapper only adds
// latency).
func TestShardedSlowSolverInjection(t *testing.T) {
	const eps = 0.01
	slots := buildSlots(3, 4, 3, 20, 6, 0.1, false)
	spec := fault.Spec{SolveDelay: time.Millisecond}
	slow := fault.Slow(&ShardedAuction{Epsilon: eps, Workers: 2}, spec)
	clean := &ShardedAuction{Epsilon: eps, Workers: 2}
	if slow.Name() != clean.Name()+"+slow" {
		t.Fatalf("wrapped solver is named %q", slow.Name())
	}
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
			t.Fatalf("slot %d: the slow wrapper changed the grants", i)
		}
		if !reflect.DeepEqual(sres.Prices, cres.Prices) {
			t.Fatalf("slot %d: the slow wrapper changed the prices", i)
		}
	}
}
