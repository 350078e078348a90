package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// BenchmarkBuildInstance times one slot's market build on the cdn-assist
// world at 400 static peers and one bidding round per slot, after a
// 10-slot warm-up: the neighbor refresh plus the instance build.
func BenchmarkBuildInstance(b *testing.B) {
	spec, ok := scenario.Get("cdn-assist")
	if !ok {
		b.Fatal("cdn-assist is not registered")
	}
	cfg := spec.Sim
	cfg.Seed = 1
	cfg.StaticPeers = 400
	cfg.BidRoundsPerSlot = 1
	build, err := sim.SteadyBuild(cfg, 10)
	if err != nil {
		b.Fatal(err)
	}
	// Collect the warm-up's garbage first: a cycle still marking would
	// take a core from the build being timed.
	runtime.GC()
	b.ReportAllocs()
	requests := 0
	for b.Loop() {
		if requests, err = build(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(requests), "requests/op")
}
