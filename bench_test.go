// Package repro's benchmark harness: one benchmark per paper report
// (internal/scenario/report.go). Each runs the report and returns its
// headline metrics through b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the evaluation at bench scale:
//
//	BenchmarkFig2PriceConvergence  — λ_u sawtooth (message-level engine)
//	BenchmarkFig3SocialWelfare     — welfare, auction vs Simple Locality
//	BenchmarkFig4InterISPTraffic   — inter-ISP traffic share
//	BenchmarkFig5ChunkMissRate     — deadline miss rate
//	BenchmarkFig6PeerDynamics      — all three metrics under churn
//	BenchmarkEngines               — centralized vs distributed welfare gap
//	BenchmarkRobustnessLoss        — welfare under message loss
//	BenchmarkStrategicBidding      — grants won by exaggerated bids
//	BenchmarkSolver*               — raw solver throughput
//	BenchmarkWarmStart*            — cold vs warm-started incremental auction
//	                                 under churn (see docs/PERFORMANCE.md and
//	                                 BENCH_warmstart.json)
//
// Figures at the paper's scale are produced by `p2psim -scale full`;
// benches use the small scale so the suite stays fast. The ablations (ε,
// neighbors, seeds per video) are preset sweeps, `p2psim -scenario … -sweep`.
package repro_test

import (
	"strconv"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// reportPair pulls "auction vs locality" numbers out of a report table.
func reportPair(b *testing.B, rep *repro.Report, col int, metric string) {
	b.Helper()
	a, err := strconv.ParseFloat(rep.Table.Rows[0][col], 64)
	if err != nil {
		b.Fatal(err)
	}
	l, err := strconv.ParseFloat(rep.Table.Rows[1][col], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(a, "auction-"+metric)
	b.ReportMetric(l, "locality-"+metric)
}

func runExperiment(b *testing.B, id string) *repro.Report {
	b.Helper()
	b.ReportAllocs()
	var rep *repro.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = repro.Experiment(id, repro.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

func BenchmarkFig2PriceConvergence(b *testing.B) {
	rep := runExperiment(b, "fig2")
	samples, err := strconv.ParseFloat(rep.Table.Rows[0][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	maxLambda, err := strconv.ParseFloat(rep.Table.Rows[1][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(samples, "price-samples")
	b.ReportMetric(maxLambda, "max-lambda")
}

func BenchmarkFig3SocialWelfare(b *testing.B) {
	rep := runExperiment(b, "fig3")
	reportPair(b, rep, 1, "welfare/slot")
}

func BenchmarkFig4InterISPTraffic(b *testing.B) {
	rep := runExperiment(b, "fig4")
	reportPair(b, rep, 3, "inter-isp")
}

func BenchmarkFig5ChunkMissRate(b *testing.B) {
	rep := runExperiment(b, "fig5")
	reportPair(b, rep, 4, "miss-rate")
}

func BenchmarkFig6PeerDynamics(b *testing.B) {
	rep := runExperiment(b, "fig6")
	reportPair(b, rep, 1, "welfare/slot")
	reportPair(b, rep, 3, "inter-isp")
	reportPair(b, rep, 4, "miss-rate")
}

func BenchmarkEngines(b *testing.B) {
	rep := runExperiment(b, "engines")
	gap, err := strconv.ParseFloat(rep.Table.Rows[2][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(gap, "engine-welfare-gap-%")
}

// randomInstance builds a slot-shaped transportation problem for the raw
// solver benchmarks.
func randomInstance(rng *randx.Source, requests, sinks int) *repro.Problem {
	p := repro.NewProblem()
	for s := 0; s < sinks; s++ {
		if _, err := p.AddSink(1 + rng.Intn(6)); err != nil {
			panic(err)
		}
	}
	for r := 0; r < requests; r++ {
		req := p.AddRequest()
		perm := rng.Perm(sinks)
		degree := 1 + rng.Intn(8)
		for k := 0; k < degree && k < len(perm); k++ {
			if err := p.AddEdge(req, core.SinkID(perm[k]), rng.Range(-1, 8)); err != nil {
				panic(err)
			}
		}
	}
	return p
}

func benchmarkAuctionSolver(b *testing.B, requests, sinks int) {
	rng := randx.New(42)
	p := randomInstance(rng, requests, sinks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.SolveAuction(p, repro.AuctionOptions{Epsilon: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverAuction200x40(b *testing.B)   { benchmarkAuctionSolver(b, 200, 40) }
func BenchmarkSolverAuction1000x200(b *testing.B) { benchmarkAuctionSolver(b, 1000, 200) }
func BenchmarkSolverAuction5000x500(b *testing.B) { benchmarkAuctionSolver(b, 5000, 500) }

func BenchmarkSolverExact200x40(b *testing.B) {
	rng := randx.New(42)
	p := randomInstance(rng, 200, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.SolveExact(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulationSlot(b *testing.B) {
	// One full static slot pipeline at small scale per iteration.
	cfg := repro.ReproConfig()
	cfg.StaticPeers = 60
	cfg.Slots = 1
	cfg.Catalog.Count = 12
	cfg.Catalog.SizeMB = 8
	cfg.NeighborCount = 15
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunAuction(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustnessLoss(b *testing.B) {
	rep := runExperiment(b, "robust-loss")
	lossless, err := strconv.ParseFloat(rep.Table.Rows[0][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	heaviest, err := strconv.ParseFloat(rep.Table.Rows[len(rep.Table.Rows)-1][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(lossless, "welfare-lossless")
	b.ReportMetric(heaviest, "welfare-40pct-loss")
}

func BenchmarkStrategicBidding(b *testing.B) {
	rep := runExperiment(b, "strategic")
	truthful, err := strconv.ParseFloat(rep.Table.Rows[1][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	exaggerated, err := strconv.ParseFloat(rep.Table.Rows[3][1], 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(truthful, "grants-truthful")
	b.ReportMetric(exaggerated, "grants-exaggerated")
}

// --- Warm-start benchmarks -------------------------------------------------
//
// BenchmarkWarmStart* measure the incremental solving layer (core.Solver /
// sched.WarmAuction) against cold per-slot re-solves on churn workloads:
// each "slot" removes ~4% of the requests, re-values ~2% (uniform weight
// shifts), rewrites the edges of ~2%, adds replacements and jitters a few
// capacities — the slot-to-slot shape of a swarm under churn, exercising
// both the cheap ValueShift path and the full update path. Cold pays
// problem rebuild + a from-λ=0 auction per slot; warm pays delta
// application + re-optimization from carried prices. Results are recorded
// in BENCH_warmstart.json and discussed in docs/PERFORMANCE.md.

// benchChurnSlots/benchChurnFrac shape the churn trace: 16 slots (between
// the registered scenarios' 10–12 and the paper's full-scale 25) at 8%
// request churn per slot — over the run, ~70% of the initial population is
// replaced. Sink capacities are drawn scarce (supply ≈ 40% of demand), so
// slots are genuinely contested and the cold baseline pays real bidding
// wars — the regime the warm start targets; docs/PERFORMANCE.md quantifies
// how the speedup varies with market tightness and churn rate.
const (
	benchChurnSlots = 16
	benchChurnFrac  = 0.08
)

// churnSlotData is one precomputed slot of a churn trace: the dense problem
// for the cold rebuild and the equivalent deltas for the warm solver.
type churnSlotData struct {
	caps   []int
	reqs   [][]core.Edge
	deltas []core.ProblemDelta
}

// churnSlots precomputes a deterministic churn trace. Request ids in the
// deltas are the ones a fresh core.Solver mints (sequential, never reused).
func churnSlots(seed uint64, nReq, nSink, nSlots int, frac float64) []churnSlotData {
	rng := randx.New(seed)
	caps := make([]int, nSink)
	for i := range caps {
		caps[i] = 1 + rng.Intn(3)
	}
	edgesFor := func() []core.Edge {
		perm := rng.Perm(nSink)
		degree := 1 + rng.Intn(8)
		if degree > len(perm) {
			degree = len(perm)
		}
		edges := make([]core.Edge, 0, degree)
		for k := 0; k < degree; k++ {
			edges = append(edges, core.Edge{Sink: core.SinkID(perm[k]), Weight: rng.Range(-1, 8)})
		}
		return edges
	}
	type liveReq struct {
		id    core.RequestID
		edges []core.Edge
	}
	snapshot := func(deltas ...core.ProblemDelta) churnSlotData {
		return churnSlotData{caps: append([]int(nil), caps...), deltas: deltas}
	}
	var live []liveReq
	sinkDelta := core.ProblemDelta{AddSinks: append([]int(nil), caps...)}
	reqDelta := core.ProblemDelta{}
	for i := 0; i < nReq; i++ {
		e := edgesFor()
		reqDelta.AddRequests = append(reqDelta.AddRequests, e)
		live = append(live, liveReq{id: core.RequestID(i), edges: e})
	}
	nextID := core.RequestID(nReq)
	slots := []churnSlotData{snapshot(sinkDelta, reqDelta)}
	for s := 1; s < nSlots; s++ {
		var d core.ProblemDelta
		kept := make([]liveReq, 0, len(live))
		for _, lr := range live {
			switch x := rng.Float64(); {
			case x < frac/2:
				d.RemoveRequests = append(d.RemoveRequests, lr.id)
			case x < frac*3/4:
				// Deadline-style re-valuation: every weight shifts together.
				d.ShiftValues = append(d.ShiftValues,
					core.ValueShift{Request: lr.id, Delta: rng.Range(-0.5, 0.5)})
				kept = append(kept, lr)
			case x < frac:
				// Neighbor-set change: the full edge rewrite.
				lr.edges = edgesFor()
				d.UpdateRequests = append(d.UpdateRequests,
					core.RequestEdges{Request: lr.id, Edges: lr.edges})
				kept = append(kept, lr)
			default:
				kept = append(kept, lr)
			}
		}
		for i := 0; i < len(d.RemoveRequests); i++ {
			e := edgesFor()
			d.AddRequests = append(d.AddRequests, e)
			kept = append(kept, liveReq{id: nextID, edges: e})
			nextID++
		}
		for t := range caps {
			if rng.Float64() < 0.05 {
				caps[t] = 1 + rng.Intn(6)
				d.SetCapacities = append(d.SetCapacities,
					core.SinkCapacity{Sink: core.SinkID(t), Capacity: caps[t]})
			}
		}
		live = kept
		slots = append(slots, snapshot(d))
	}
	// Rebuild the dense per-slot views by replaying the deltas on a shadow
	// model (edges are shared, read-only from here on).
	shadow := make(map[core.RequestID][]core.Edge)
	next := core.RequestID(0)
	for i := range slots {
		for _, d := range slots[i].deltas {
			for _, r := range d.RemoveRequests {
				delete(shadow, r)
			}
			for _, u := range d.UpdateRequests {
				shadow[u.Request] = u.Edges
			}
			for _, v := range d.ShiftValues {
				shifted := append([]core.Edge(nil), shadow[v.Request]...)
				for j := range shifted {
					shifted[j].Weight += v.Delta
				}
				shadow[v.Request] = shifted
			}
			for _, e := range d.AddRequests {
				shadow[next] = e
				next++
			}
		}
		dense := make([][]core.Edge, 0, len(shadow))
		for r := core.RequestID(0); r < next; r++ {
			if e, ok := shadow[r]; ok {
				dense = append(dense, e)
			}
		}
		slots[i].reqs = dense
	}
	return slots
}

func benchmarkWarmStartCold(b *testing.B, nReq, nSink int) {
	slots := churnSlots(42, nReq, nSink, benchChurnSlots, benchChurnFrac)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sl := range slots {
			p := repro.NewProblem()
			for _, c := range sl.caps {
				if _, err := p.AddSink(c); err != nil {
					b.Fatal(err)
				}
			}
			for _, edges := range sl.reqs {
				r := p.AddRequest()
				for _, e := range edges {
					if err := p.AddEdge(r, e.Sink, e.Weight); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, err := repro.SolveAuction(p, repro.AuctionOptions{Epsilon: 0.01}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchmarkWarmStartWarm(b *testing.B, nReq, nSink int) {
	slots := churnSlots(42, nReq, nSink, benchChurnSlots, benchChurnFrac)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver, err := repro.NewIncrementalSolver(repro.AuctionOptions{Epsilon: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		for _, sl := range slots {
			for _, d := range sl.deltas {
				if _, err := solver.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := solver.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWarmStartColdChurn200x40(b *testing.B)   { benchmarkWarmStartCold(b, 200, 40) }
func BenchmarkWarmStartWarmChurn200x40(b *testing.B)   { benchmarkWarmStartWarm(b, 200, 40) }
func BenchmarkWarmStartColdChurn1000x200(b *testing.B) { benchmarkWarmStartCold(b, 1000, 200) }
func BenchmarkWarmStartWarmChurn1000x200(b *testing.B) { benchmarkWarmStartWarm(b, 1000, 200) }
func BenchmarkWarmStartColdChurn5000x500(b *testing.B) { benchmarkWarmStartCold(b, 5000, 500) }
func BenchmarkWarmStartWarmChurn5000x500(b *testing.B) { benchmarkWarmStartWarm(b, 5000, 500) }

// BenchmarkWarmStartSimChurn* run the registered churn scenario end to end —
// world stepping, instance building and transfer accounting included — so
// they bound how much of the slot pipeline the solver actually is.
func BenchmarkWarmStartSimChurnCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunScenario("churn", 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmStartSimChurnWarm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunScenario("churn-warm", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sharding benchmarks ----------------------------------------------------
//
// BenchmarkShard* measure the sharded swarm orchestrator (internal/cluster)
// against monolithic solves on multi-swarm churn traces: S independent
// swarms (the slot problem's connected components), 16 slots of ~8% request
// churn each, at three problem sizes. The monolithic baselines pay one
// global solve per slot — cold (rebuild + λ=0 auction, the pre-warm-start
// baseline) or warm (one global incremental solver, the PR-2 baseline); the
// sharded runs pay partition + per-shard warm solves on 1/2/4/8 workers.
// Results are recorded in BENCH_shard.json and discussed in
// docs/PERFORMANCE.md ("The sharding headline").

// The trace generator is shared with the cluster package's golden tests
// (internal/cluster/clustertest), so the goldens and these benchmarks
// always measure the same workload shape.
//
// Shard benchmark sizes: swarms × requests-per-swarm × uploaders-per-swarm.
// Small ≈ 1.6k requests, medium ≈ 6.4k, large ≈ 19.2k per slot — the large
// size is one bidding round of a ~20k-peer network.
const (
	shardBenchSlots = 16
	shardBenchFrac  = 0.08
)

func shardBenchTrace(b *testing.B, swarms, reqPer, upPer int) []*sched.Instance {
	b.Helper()
	return clustertest.BuildSlots(42, shardBenchSlots, swarms, reqPer, upPer, shardBenchFrac, false)
}

func benchmarkShardMonolithicCold(b *testing.B, swarms, reqPer, upPer int) {
	slots := shardBenchTrace(b, swarms, reqPer, upPer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &sched.Auction{Epsilon: 0.01}
		for _, in := range slots {
			if _, err := s.Schedule(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchmarkShardMonolithicWarm(b *testing.B, swarms, reqPer, upPer int) {
	slots := shardBenchTrace(b, swarms, reqPer, upPer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &sched.WarmAuction{Epsilon: 0.01}
		for _, in := range slots {
			if _, err := s.Schedule(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchmarkShardSharded(b *testing.B, swarms, reqPer, upPer, workers int) {
	slots := shardBenchTrace(b, swarms, reqPer, upPer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &cluster.ShardedAuction{Epsilon: 0.01, Workers: workers}
		for _, in := range slots {
			if _, err := s.Schedule(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkShardMonolithicColdSmall(b *testing.B)  { benchmarkShardMonolithicCold(b, 8, 200, 40) }
func BenchmarkShardMonolithicWarmSmall(b *testing.B)  { benchmarkShardMonolithicWarm(b, 8, 200, 40) }
func BenchmarkShardShardedSmall1(b *testing.B)        { benchmarkShardSharded(b, 8, 200, 40, 1) }
func BenchmarkShardShardedSmall2(b *testing.B)        { benchmarkShardSharded(b, 8, 200, 40, 2) }
func BenchmarkShardShardedSmall4(b *testing.B)        { benchmarkShardSharded(b, 8, 200, 40, 4) }
func BenchmarkShardShardedSmall8(b *testing.B)        { benchmarkShardSharded(b, 8, 200, 40, 8) }
func BenchmarkShardMonolithicColdMedium(b *testing.B) { benchmarkShardMonolithicCold(b, 32, 200, 40) }
func BenchmarkShardMonolithicWarmMedium(b *testing.B) { benchmarkShardMonolithicWarm(b, 32, 200, 40) }
func BenchmarkShardShardedMedium1(b *testing.B)       { benchmarkShardSharded(b, 32, 200, 40, 1) }
func BenchmarkShardShardedMedium2(b *testing.B)       { benchmarkShardSharded(b, 32, 200, 40, 2) }
func BenchmarkShardShardedMedium4(b *testing.B)       { benchmarkShardSharded(b, 32, 200, 40, 4) }
func BenchmarkShardShardedMedium8(b *testing.B)       { benchmarkShardSharded(b, 32, 200, 40, 8) }
func BenchmarkShardMonolithicColdLarge(b *testing.B)  { benchmarkShardMonolithicCold(b, 96, 200, 40) }
func BenchmarkShardMonolithicWarmLarge(b *testing.B)  { benchmarkShardMonolithicWarm(b, 96, 200, 40) }
func BenchmarkShardShardedLarge1(b *testing.B)        { benchmarkShardSharded(b, 96, 200, 40, 1) }
func BenchmarkShardShardedLarge2(b *testing.B)        { benchmarkShardSharded(b, 96, 200, 40, 2) }
func BenchmarkShardShardedLarge4(b *testing.B)        { benchmarkShardSharded(b, 96, 200, 40, 4) }
func BenchmarkShardShardedLarge8(b *testing.B)        { benchmarkShardSharded(b, 96, 200, 40, 8) }

// --- Zero-rebuild pipeline benchmarks ---------------------------------------
//
// BenchmarkPipeline{Rebuild,Incremental}* isolate the slot pipeline itself:
// the same scenario, the same scheduler, run once through the from-scratch
// reference pipeline (sim.RunRebuild — fresh instances, per-slot maps, no
// deltas; the code every round paid before this PR) and once through the
// zero-rebuild pipeline (sim.Run — persistent builder instance, carried
// candidate lists, delta-fed schedulers, scratch-buffer transfers). The
// results are deep-equal by construction (the scenario package's
// equivalence goldens); only B/op and allocs/op and ns/op differ. Results
// are recorded in BENCH_pipeline.json and discussed in
// docs/PERFORMANCE.md ("The zero-rebuild pipeline headline").

// pipelineScenarioSpec resolves a registered scenario to a sim config and
// the spec whose Scheduler builds its solver, optionally shrunk to peers and
// stretched to slots (steady-state rounds must dominate setup for the
// pipeline comparison to mean anything — the mega preset ships with 2 slots).
func pipelineScenarioSpec(b *testing.B, name string, peers, slots int) (sim.Config, scenario.Spec) {
	b.Helper()
	spec, ok := scenario.Get(name)
	if !ok {
		b.Fatalf("%s not registered", name)
	}
	if peers > 0 {
		if err := scenario.ApplyParam(&spec, "peers", float64(peers)); err != nil {
			b.Fatal(err)
		}
	}
	if slots > 0 {
		if err := scenario.ApplyParam(&spec, "slots", float64(slots)); err != nil {
			b.Fatal(err)
		}
	}
	cfg := spec.Sim
	cfg.Seed = 1
	return cfg, spec
}

func benchmarkPipeline(b *testing.B, name string, peers, slots int, incremental bool) {
	cfg, spec := pipelineScenarioSpec(b, name, peers, slots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := spec.Scheduler(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if incremental {
			_, err = sim.Run(cfg, s)
		} else {
			_, err = sim.RunRebuild(cfg, s)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The churn pair runs the registered churn scenario under the cold auction
// — pure pipeline delta (instance building, transfers) with an unchanged
// solver. The mega-swarm pair runs the 100k-peer preset shrunken to 5k
// peers (routine-bench scale; the full preset is the nightly lane) under
// the sharded orchestrator, whose incremental shard membership and
// identity deltas only engage on the zero-rebuild side.
func BenchmarkPipelineRebuildChurn(b *testing.B) { benchmarkPipeline(b, "churn", 0, 0, false) }
func BenchmarkPipelineIncrementalChurn(b *testing.B) {
	benchmarkPipeline(b, "churn", 0, 0, true)
}
func BenchmarkPipelineRebuildMegaSwarm(b *testing.B) {
	benchmarkPipeline(b, "mega-swarm", 5000, 10, false)
}
func BenchmarkPipelineIncrementalMegaSwarm(b *testing.B) {
	benchmarkPipeline(b, "mega-swarm", 5000, 10, true)
}

// The CDN trio measures the hybrid tier end-to-end (world build with CDN
// bidders, three-tier auction, LRU cache accounting, offload report) and
// reports the offload economics as headline metrics. The hybrid pair shows
// the swarm absorbing most traffic at a near-zero CDN bill; the cdn-only
// ablation is the dominance golden's baseline (TestHybridDominatesCDNOnly)
// at bench scale. Results are recorded in BENCH_cdn.json and discussed in
// docs/PERFORMANCE.md and docs/CDN.md.
func benchmarkCDNScenario(b *testing.B, name string, cdnOnly bool) {
	spec, ok := scenario.Get(name)
	if !ok {
		b.Fatalf("%s not registered", name)
	}
	if cdnOnly {
		if err := scenario.ApplyParam(&spec, "cdn-only", 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	var res *scenario.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = spec.Run(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Metrics["offload_ratio"], "offload-ratio")
	b.ReportMetric(res.Metrics["cdn_usd"]*1e3, "cdn-musd")
	b.ReportMetric(res.Metrics["edge_hit_rate"], "edge-hit-rate")
	b.ReportMetric(res.Metrics["miss_rate"], "miss-rate")
}

func BenchmarkCDNAssist(b *testing.B)     { benchmarkCDNScenario(b, "cdn-assist", false) }
func BenchmarkCDNFlashCrowd(b *testing.B) { benchmarkCDNScenario(b, "flash-crowd-cdn", false) }
func BenchmarkCDNOnlyBaseline(b *testing.B) {
	benchmarkCDNScenario(b, "cdn-assist", true)
}

// lastRound wraps a scheduler and keeps a private copy of the last instance
// it was handed.
type lastRound struct {
	sched.Scheduler
	in *sched.Instance
}

func (l *lastRound) Schedule(in *sched.Instance) (*sched.Result, error) {
	l.in = in.Clone()
	return l.Scheduler.Schedule(in)
}

// BenchmarkAuctionScheduleCold times one cold per-round auction call —
// instance → core.Problem → SolveAuction → grants — on a round of the
// cdn-assist world at 400 static peers and one bidding round per slot,
// captured after 10 slots: the round shape of perfbench's sim-cdn-cold
// workload. B/op and allocs/op are the cold slot's allocation cost, which a
// presized problem keeps independent of the request count.
func BenchmarkAuctionScheduleCold(b *testing.B) {
	spec, ok := scenario.Get("cdn-assist")
	if !ok {
		b.Fatal("cdn-assist not registered")
	}
	cfg := spec.Sim
	cfg.Seed = 1
	cfg.StaticPeers = 400
	cfg.BidRoundsPerSlot = 1
	cfg.Slots = 11
	auction := &sched.Auction{Epsilon: cfg.Epsilon}
	round := &lastRound{Scheduler: auction}
	if _, err := sim.Run(cfg, round); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := auction.Schedule(round.in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(round.in.Requests)), "requests")
}
