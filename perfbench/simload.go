package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cdn"
	"repro/internal/cluster"
	"repro/internal/economics"
	"repro/internal/isp"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// errStop ends a sim.Run once the benchmark has measured enough; the run's
// own results are not needed.
var errStop = errors.New("perfbench: measurement finished")

// pendingRound is a round whose end (the next round's start) is not yet
// known.
type pendingRound struct {
	win      *window
	start    time.Time
	call     time.Duration
	overhead time.Duration
	requests int
}

// probe wraps the scheduler handed to sim.Run and times it from outside:
// each bidding round runs from one scheduler call's start to the next's, and
// the scheduler call is the layer below the sim world. It validates every
// round's grants and checks every sampleEvery-th round against Theorem 2.
// boundary runs at the first round of every slot; returning true stops the
// run.
type probe struct {
	inner   sched.Scheduler
	ds      sched.DeltaScheduler // inner, when it consumes builder deltas
	perSlot int
	ispOf   func(isp.PeerID) (isp.ID, bool)

	boundary func(now time.Time) bool
	win      *window // the open window; nil while warming up
	eps      float64
	numISPs  int

	calls   int
	inWin   int // rounds scheduled in the open window
	pend    pendingRound
	errs    []error
	thm2    thm2Tally
	traffic *economics.Matrix // ISP×ISP chunks of the sampled rounds
}

func newProbe(inner sched.Scheduler, cfg sim.Config) (*probe, error) {
	traffic, err := economics.NewMatrix(cfg.NumISPs)
	if err != nil {
		return nil, err
	}
	p := &probe{inner: inner, perSlot: cfg.BidRoundsPerSlot, eps: cfg.Epsilon,
		numISPs: cfg.NumISPs, traffic: traffic}
	p.ds, _ = inner.(sched.DeltaScheduler)
	return p, nil
}

// deltaProbe is the probe for schedulers that consume builder deltas: the
// sim hands deltas only to a sched.DeltaScheduler, so the wrapper must be
// one exactly when the wrapped scheduler is.
type deltaProbe struct{ *probe }

func (p deltaProbe) ScheduleDelta(in *sched.Instance, d *sched.InstanceDelta) (*sched.Result, error) {
	return p.schedule(in, d, true)
}

// scheduler returns the wrapper to hand to sim.Run.
func (p *probe) scheduler() sched.Scheduler {
	if p.ds != nil {
		return deltaProbe{p}
	}
	return p
}

func (p *probe) Name() string { return p.inner.Name() }

func (p *probe) Schedule(in *sched.Instance) (*sched.Result, error) {
	return p.schedule(in, nil, false)
}

// SetISPLookup receives the world's topology lookup (sim.ISPAware) and
// passes it on to a scheduler that wants it.
func (p *probe) SetISPLookup(f func(isp.PeerID) (isp.ID, bool)) {
	p.ispOf = f
	if ia, ok := p.inner.(sim.ISPAware); ok {
		ia.SetISPLookup(f)
	}
}

// openWindow starts timing rounds into w.
func (p *probe) openWindow(w *window) {
	w.begin()
	p.win, p.inWin = w, 0
}

// closeRound ends the pending round at now.
func (p *probe) closeRound(now time.Time) {
	r := p.pend
	p.pend = pendingRound{}
	if r.win == nil {
		return
	}
	round := now.Sub(r.start) - r.overhead
	r.win.overhead += r.overhead
	r.win.roundMS = append(r.win.roundMS, ms(round))
	r.win.loopSecs = append(r.win.loopSecs, round.Seconds())
	r.win.requests = append(r.win.requests, float64(r.requests))
	r.win.add("world_ms", ms(round-r.call))
	r.win.add("call_ms", ms(r.call))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (p *probe) schedule(in *sched.Instance, d *sched.InstanceDelta, useDelta bool) (*sched.Result, error) {
	now := time.Now()
	p.closeRound(now)
	if p.calls%p.perSlot == 0 && p.boundary(now) {
		return nil, errStop
	}
	p.calls++
	start := time.Now()
	if p.win != nil {
		p.win.overhead += start.Sub(now)
	}
	var res *sched.Result
	var err error
	if useDelta {
		res, err = p.ds.ScheduleDelta(in, d)
	} else {
		res, err = p.inner.Schedule(in)
	}
	callEnd := time.Now()
	if err != nil {
		return nil, err
	}
	w := p.win
	if w == nil {
		return res, nil
	}
	overhead := start.Sub(now) + w.exclude(func() {
		p.inspect(w, in, d, useDelta, res)
		w.notePeak()
	})
	p.pend = pendingRound{win: w, start: start, call: callEnd.Sub(start),
		overhead: overhead, requests: len(in.Requests)}
	return res, nil
}

// traceRing sizes the per-track span rings for a traced window of length d
// (the busiest track, a shard worker, records a few thousand spans a
// second); spansIn refuses a trace whose rings overflowed.
func traceRing(d time.Duration) int {
	n := 1 << 16
	for float64(n) < 6000*d.Seconds() {
		n <<= 1
	}
	return n
}

// inspect is the benchmark's own work on a scheduled round: output checks
// and tallies, excluded from the round's time.
func (p *probe) inspect(w *window, in *sched.Instance, d *sched.InstanceDelta, useDelta bool, res *sched.Result) {
	if err := in.Validate(res.Grants); err != nil {
		p.errs = append(p.errs, fmt.Errorf("round %d: %w", p.calls, err))
	}
	welfare, err := in.Welfare(res.Grants)
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("round %d: %w", p.calls, err))
	}
	w.welfare += welfare
	w.grants += float64(len(res.Grants))
	for _, k := range solverStats {
		w.add(k, res.Stats[k])
	}
	if useDelta {
		switch {
		case d == nil:
		case d.Identity:
			w.add("identity_rounds", 1)
		default:
			w.add("delta_rows", float64(deltaRows(d)))
		}
	}
	if p.inWin%sampleEvery == 0 {
		what := fmt.Sprintf("round %d", p.calls)
		if err := p.thm2.checkDual(what, in, res.Prices, welfare, p.eps); err != nil {
			p.errs = append(p.errs, err)
		}
		m, err := economics.FromGrants(in, res.Grants, p.ispOf, p.numISPs)
		if err == nil {
			err = p.traffic.Merge(m)
		}
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("%s: traffic matrix: %w", what, err))
		}
	}
	p.inWin++
}

// solverStats are the Result.Stats keys summed over a window.
var solverStats = []string{"bids", "iterations", "evictions", "sweep_passes", "cold_restarts",
	"reserve_surrenders", "carried", "delta_ops", "shards", "migrations"}

// deltaRows counts the rows a builder delta changes: requests and uploaders
// that arrived or left, and carried requests whose candidates moved.
func deltaRows(d *sched.InstanceDelta) int {
	n := len(d.RemovedReqs) + len(d.RemovedUps)
	for i, prev := range d.PrevReq {
		if prev < 0 || (i < len(d.SameCands) && !d.SameCands[i]) {
			n++
		}
	}
	for _, prev := range d.PrevUp {
		if prev < 0 {
			n++
		}
	}
	return n
}

// simWorkload is one simulator world and the scheduler that solves it.
type simWorkload struct {
	config      func(seed uint64) (sim.Config, error)
	scheduler   func(cfg sim.Config) sched.Scheduler
	warmupSlots int
}

// sampleEvery is the number of sim rounds between Theorem 2 checks.
const sampleEvery = 20

const setupReps = 5

// minRounds is the fewest rounds a window measures, so that the p95 of the
// round times has ten samples beyond it even on a slow run: a window ends at
// its deadline or at minRounds rounds, whichever comes later.
const minRounds = 200

func windowDone(now, deadline time.Time, w *window) bool {
	return !now.Before(deadline) && len(w.roundMS) >= minRounds
}

// tracedWindow is the length of the traced window: half the untraced one.
// Its figures are per-layer averages, which need fewer rounds than the
// end-to-end medians, and a shorter window keeps the span rings small.
func tracedWindow(d time.Duration) time.Duration { return d / 2 }

type simPhase int

const (
	phaseWarmup simPhase = iota
	phaseUntraced
	phaseSwitch // trace installed, waiting for the next slot to start
	phaseTraced
	phaseDone
)

func runSim(wl simWorkload, opt options) (*outcome, error) {
	cfg, err := wl.config(opt.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	smp := newSampler()
	var setups []float64
	var p *probe
	var winA, winB *window
	var shardedBase cluster.Stats
	var cdnBase tierCounters
	var trace *obs.Trace
	var traceEpoch time.Time
	for rep := 0; rep < setupReps; rep++ {
		last := rep == setupReps-1
		inner := wl.scheduler(cfg)
		if p, err = newProbe(inner, cfg); err != nil {
			return nil, err
		}
		phase := phaseWarmup
		var deadline time.Time
		start := time.Now()
		p.boundary = func(now time.Time) bool {
			switch phase {
			case phaseWarmup:
				if p.calls/p.perSlot < wl.warmupSlots {
					return false
				}
				setups = append(setups, now.Sub(start).Seconds())
				if !last {
					return true
				}
				winA = newWindow(smp)
				if sa, ok := inner.(*cluster.ShardedAuction); ok {
					shardedBase = sa.Stats()
				}
				cdnBase = readTierCounters()
				p.openWindow(winA)
				deadline = time.Now().Add(opt.duration)
				phase = phaseUntraced
			case phaseUntraced:
				if !windowDone(now, deadline, winA) {
					return false
				}
				winA.finish()
				p.win = nil
				if sa, ok := inner.(*cluster.ShardedAuction); ok {
					reportSharded(o, shardedBase, sa.Stats())
				}
				reportTiers(o, cdnBase, readTierCounters(), cfg)
				if !opt.trace {
					phase = phaseDone
					return true
				}
				traceEpoch = time.Now()
				trace = obs.NewTrace("perfbench", traceRing(tracedWindow(opt.duration)))
				if err := obs.Install(trace); err != nil {
					p.errs = append(p.errs, err)
					return true
				}
				phase = phaseSwitch
			case phaseSwitch:
				winB = newWindow(smp)
				p.openWindow(winB)
				deadline = time.Now().Add(tracedWindow(opt.duration))
				phase = phaseTraced
			case phaseTraced:
				if !windowDone(now, deadline, winB) {
					return false
				}
				winB.finish()
				p.win = nil
				obs.Uninstall()
				phase = phaseDone
				return true
			}
			return false
		}
		_, err := sim.Run(cfg, p.scheduler())
		if !errors.Is(err, errStop) {
			return nil, fmt.Errorf("sim run ended without the benchmark stopping it: %v", err)
		}
		if len(p.errs) > 0 {
			break
		}
	}
	for _, err := range p.errs {
		o.fail(err)
	}
	if winA == nil {
		return o, nil
	}
	o.set("setup_s", median(setups))
	o.note("setup s (world build + %d warm-up slots, %d times): %v", wl.warmupSlots, setupReps, setups)
	o.attempted = int64(winA.totalRequests())
	if err := winA.report(o); err != nil {
		return nil, err
	}
	rounds := float64(len(winA.roundMS))
	reqs := winA.totalRequests()
	o.set("sim.world_ms_per_round", winA.counts["world_ms"]/rounds)
	o.set("sched.call_ms_per_round", winA.counts["call_ms"]/rounds)
	o.set("sched.delta_rows_per_round", winA.counts["delta_rows"]/rounds)
	o.set("sched.identity_round_share", winA.counts["identity_rounds"]/rounds)
	o.set("sched.carried_share", winA.counts["carried"]/reqs)
	o.set("sched.delta_ops_per_request", winA.counts["delta_ops"]/reqs)
	reportCore(o, winA)
	o.set("cluster.shards_per_round", winA.counts["shards"]/rounds)
	o.set("cluster.migrations_per_round", winA.counts["migrations"]/rounds)

	o.note("%v", &p.thm2)
	if err := timeSettle(o, p.traffic, cfg); err != nil {
		return nil, err
	}
	if winB != nil {
		if err := reportSimSpans(o, trace, traceEpoch, winB, cfg); err != nil {
			return nil, err
		}
		o.set("obs.tracing_overhead_share", 1-winB.throughput()/winA.throughput())
	}
	o.zeroUnset("service.", "cluster.")
	return o, nil
}

// reportCore fills the solver metrics from the summed Result.Stats.
func reportCore(o *outcome, w *window) {
	rounds := float64(len(w.roundMS))
	reqs := w.totalRequests()
	o.set("core.bids_per_request", w.counts["bids"]/reqs)
	o.set("core.iterations_per_round", w.counts["iterations"]/rounds)
	o.set("core.evictions_per_request", w.counts["evictions"]/reqs)
	o.set("core.sweep_passes_per_round", w.counts["sweep_passes"]/rounds)
	o.set("core.cold_restarts", w.counts["cold_restarts"])
	o.set("core.reserve_surrenders", w.counts["reserve_surrenders"])
}

// reportSharded fills the orchestrator's lifecycle metrics from the change
// in ShardedAuction.Stats over the window.
func reportSharded(o *outcome, before, after cluster.Stats) {
	inc := float64(after.PartitionIncremental - before.PartitionIncremental)
	all := inc + float64(after.PartitionRebuilds-before.PartitionRebuilds)
	o.set("cluster.partition_incremental_share", ratio(inc, all))
	o.set("cluster.max_shard_requests", float64(after.MaxShardRequests))
}

// tierCounters are the CDN tier's process-wide counters (cdn.Telemetry).
type tierCounters struct{ p2p, edge, origin, backhaul, hits, misses uint64 }

func readTierCounters() tierCounters {
	c := func(name string) uint64 { return cdn.Telemetry.Counter(name, "").Value() }
	return tierCounters{
		p2p:      c("cdn_p2p_served_bytes_total"),
		edge:     c("cdn_edge_served_bytes_total"),
		origin:   c("cdn_origin_served_bytes_total"),
		backhaul: c("cdn_backhaul_bytes_total"),
		hits:     c("cdn_edge_cache_hits_total"),
		misses:   c("cdn_edge_cache_misses_total"),
	}
}

// reportTiers turns the window's CDN counter deltas into the offload report
// through economics.ComputeOffload. Worlds without a CDN report zeros.
func reportTiers(o *outcome, before, after tierCounters, cfg sim.Config) {
	o.set("cdn.p2p_share", 0)
	o.set("cdn.edge_hit_rate", 0)
	o.set("cdn.origin_share", 0)
	if !cfg.CDN.Enabled {
		return
	}
	cb := cfg.ChunkBytes()
	chunks := func(a, b uint64) int64 { return int64(float64(b-a)/cb + 0.5) }
	tc := economics.TierCounts{
		P2PChunks:      chunks(before.p2p, after.p2p),
		EdgeChunks:     chunks(before.edge, after.edge),
		OriginChunks:   chunks(before.origin, after.origin),
		BackhaulChunks: chunks(before.backhaul, after.backhaul),
		EdgeHits:       int64(after.hits - before.hits),
		EdgeMisses:     int64(after.misses - before.misses),
	}
	off, err := economics.ComputeOffload(tc, cb, cfg.CDN.Pricing)
	if err != nil {
		o.fail(fmt.Errorf("offload report: %w", err))
		return
	}
	o.set("cdn.p2p_share", off.P2PShare)
	o.set("cdn.edge_hit_rate", off.EdgeHitRate)
	o.set("cdn.origin_share", off.OriginShare)
}

// timeSettle prices the sampled rounds' traffic with economics.Settle under
// the flat transit bill the cdn-assist preset uses, and reports the median
// of several timed calls.
func timeSettle(o *outcome, m *economics.Matrix, cfg sim.Config) error {
	model, err := economics.TransitSpec{Kind: "flat", USDPerGB: 1}.Build()
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := economics.Settle(m, cfg.ChunkBytes(), model); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t0)))
	}
	o.set("economics.settle_ms", median(times))
	return nil
}
