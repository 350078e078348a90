package sim

import (
	"fmt"

	"repro/internal/cdn"
	"repro/internal/economics"
	"repro/internal/isp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Results carries a run's evaluation output: the per-slot series behind the
// paper's figures plus aggregate counters.
type Results struct {
	Strategy string
	// Welfare is social welfare per slot (Fig. 3 / 6a).
	Welfare metrics.Series
	// InterISP is the inter-ISP share of chunk transfers per slot
	// (Fig. 4 / 6b).
	InterISP metrics.Series
	// MissRate is the deadline-miss fraction per slot (Fig. 5 / 6c).
	MissRate metrics.Series
	// Online is the watcher population per slot.
	Online metrics.Series
	// Payments is the λ-weighted sum winners would pay per slot (0 for
	// price-free strategies); with it, buyer surplus = welfare − payments.
	Payments metrics.Series
	// Shards is the per-slot shard count when the slot scheduler partitions
	// the market (cluster.ShardedAuction). All-zero for monolithic
	// schedulers, DES included.
	Shards metrics.Series
	// CrossISPBytes is the absolute cross-ISP traffic volume per slot in
	// bytes (inter-ISP chunk transfers × chunk size) — unlike the InterISP
	// *share*, it is additive, so per-shard or per-slot series recombine
	// by pointwise sums, and the settlement layer (internal/economics)
	// prices it directly.
	CrossISPBytes metrics.Series
	// PriceTrace samples a representative peer's λ_u over fine-grained
	// simulated time (Fig. 2). Only DES (auction-des) records one; nil
	// under every other scheduler.
	PriceTrace *metrics.Series

	TotalGrants   int64
	TotalInterISP int64
	TotalMissed   int64
	TotalPlayed   int64
	TotalPayments float64
	Joined        int64
	Departed      int64

	// Crashes/Rejoins count injected crash-stops and their respawns
	// (cfg.Fault; zero when fault injection is off). Crashed peers are
	// included in Departed, rejoins in Joined.
	Crashes int64
	Rejoins int64

	// Per-tier delivery counters (the hybrid CDN tier, internal/cdn):
	// ServedP2P + ServedEdge + ServedOrigin = TotalGrants. EdgeCacheHits +
	// EdgeCacheMisses = ServedEdge, and BackhaulChunks = EdgeCacheMisses
	// (each edge miss is one origin→edge fill). Without cfg.CDN.Enabled,
	// ServedP2P = TotalGrants and the rest stay zero.
	ServedP2P       int64
	ServedEdge      int64
	ServedOrigin    int64
	EdgeCacheHits   int64
	EdgeCacheMisses int64
	BackhaulChunks  int64

	// TrafficMatrix counts chunk transfers from ISP src to ISP dst over the
	// run (diagonal = intra-ISP): the ledger an ISP operator audits, and
	// the input the settlement models (internal/economics) price.
	TrafficMatrix *economics.Matrix
	// SlotTraffic holds one traffic matrix per slot. The slot ledgers are
	// disjoint, so merging them (economics.Matrix.Merge) reproduces
	// TrafficMatrix exactly — the same recombination contract sharded and
	// partitioned runs rely on.
	SlotTraffic []*economics.Matrix
	// PerISPMissRate is each ISP's watchers' aggregate miss rate — the
	// fairness view across ISPs (content-poor ISPs suffer first).
	PerISPMissRate []float64
}

// TierCounts bundles the per-tier delivery counters for the economics
// offload report (economics.ComputeOffload).
func (r *Results) TierCounts() economics.TierCounts {
	return economics.TierCounts{
		P2PChunks:      r.ServedP2P,
		EdgeChunks:     r.ServedEdge,
		OriginChunks:   r.ServedOrigin,
		BackhaulChunks: r.BackhaulChunks,
		EdgeHits:       r.EdgeCacheHits,
		EdgeMisses:     r.EdgeCacheMisses,
	}
}

// MeanInterISPFraction returns total inter-ISP transfers over total
// transfers.
func (r *Results) MeanInterISPFraction() float64 {
	if r.TotalGrants == 0 {
		return 0
	}
	return float64(r.TotalInterISP) / float64(r.TotalGrants)
}

// MeanMissRate returns total misses over total played chunks.
func (r *Results) MeanMissRate() float64 {
	if r.TotalPlayed == 0 {
		return 0
	}
	return float64(r.TotalMissed) / float64(r.TotalPlayed)
}

// MissRateFairness returns Jain's fairness index over the per-ISP goodput
// ratios (1 = perfectly even service quality across ISPs; 1/M = one ISP gets
// everything). Returns 1 when nothing was played.
func (r *Results) MissRateFairness() float64 {
	var ratios []float64
	for _, m := range r.PerISPMissRate {
		ratios = append(ratios, 1-m) // goodput share per ISP
	}
	if len(ratios) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range ratios {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(ratios)) * sumSq)
}

// finalizeFrom copies the world's run-level ledgers into the results.
func (r *Results) finalizeFrom(w *world) {
	r.Joined = w.joined
	r.Departed = w.departed
	r.Crashes = w.crashes
	r.Rejoins = w.rejoins
	r.TrafficMatrix = w.traffic.Clone()
	r.PerISPMissRate = make([]float64, len(w.perISPPlayed))
	for i := range w.perISPPlayed {
		if w.perISPPlayed[i] > 0 {
			r.PerISPMissRate[i] = float64(w.perISPMissed[i]) / float64(w.perISPPlayed[i])
		}
	}
}

// nameSeries names every per-slot series after the strategy.
func (r *Results) nameSeries(strategy string) {
	r.Welfare.Name = strategy + "/welfare"
	r.InterISP.Name = strategy + "/inter-isp"
	r.MissRate.Name = strategy + "/miss-rate"
	r.Online.Name = strategy + "/online"
	r.Payments.Name = strategy + "/payments"
	r.Shards.Name = strategy + "/shards"
	r.CrossISPBytes.Name = strategy + "/cross-isp-bytes"
}

// ISPAware is implemented by schedulers and wrappers that want the world's
// peer→ISP lookup (a probe that prices each round's traffic per ISP pair).
// Run injects the topology lookup before the first slot.
type ISPAware interface {
	SetISPLookup(func(isp.PeerID) (isp.ID, bool))
}

// worldScheduler is a scheduler that solves rounds on the world's own peers
// rather than on the instance alone (DES). Run binds it to the world before
// the first slot and lets it add to the results after the last.
type worldScheduler interface {
	bind(w *world) error
	finish(res *Results)
}

// Run executes cfg's world for Slots slots, each bidding round solved by
// scheduler.
func Run(cfg Config, scheduler sched.Scheduler) (*Results, error) {
	if scheduler == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	if ia, ok := scheduler.(ISPAware); ok {
		ia.SetISPLookup(w.ispOf)
	}
	ws, bound := scheduler.(worldScheduler)
	if bound {
		if err := ws.bind(w); err != nil {
			return nil, err
		}
	}
	res := &Results{Strategy: scheduler.Name()}
	res.nameSeries(scheduler.Name())

	for slot := 0; slot < cfg.Slots; slot++ {
		w.slot = slot
		if err := stepSlot(w, scheduler, res); err != nil {
			return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
		}
	}
	if bound {
		ws.finish(res)
	}
	res.finalizeFrom(w)
	return res, nil
}

// stepSlot runs one slot of the shared pipeline: neighbor refresh, the
// slot's bidding rounds (schedule + transfers each), playback/misses, churn.
// Schedulers that consume slot-to-slot deltas (sched.DeltaScheduler) get the
// builder's delta, derived for them alone, alongside each instance;
// everyone else sees the classic Schedule call on the identical instance.
func stepSlot(w *world, scheduler sched.Scheduler, res *Results) error {
	// One track for the whole sim loop: stepSlot runs on a single goroutine,
	// so the track needs no locking; when tracing is off every span call
	// below is a nil-receiver no-op.
	tk := obs.TrackFor("sim")
	slotSpan := tk.Begin("slot")
	slotSpan.Arg("slot", float64(w.slot))
	rsp := tk.Begin("refresh")
	w.refreshNeighbors()
	rsp.End()
	var out slotOutcome
	out.departures = w.departScratch[:0]
	ds, wantsDelta := scheduler.(sched.DeltaScheduler)
	for j := 0; j < w.cfg.BidRoundsPerSlot; j++ {
		bsp := tk.Begin("build")
		in, err := w.buildInstance(j)
		if err != nil {
			return err
		}
		var delta *sched.InstanceDelta
		if wantsDelta {
			delta = w.builder.Delta()
		}
		if tk != nil {
			bsp.Arg("round", float64(j)).
				Arg("requests", float64(len(in.Requests))).
				Arg("uploaders", float64(len(in.Uploaders)))
			if delta != nil && delta.Identity {
				// Builder identity fast path: same rows, values-only delta.
				bsp.Arg("identity", 1)
			}
		}
		bsp.End()
		ssp := tk.Begin("solve")
		var sr *sched.Result
		if wantsDelta {
			sr, err = ds.ScheduleDelta(in, delta)
		} else {
			sr, err = scheduler.Schedule(in)
		}
		if err != nil {
			return err
		}
		if tk != nil {
			ssp.Arg("grants", float64(len(sr.Grants)))
			if sr.Stats != nil {
				ssp.Arg("bids", sr.Stats["bids"]).
					Arg("iterations", sr.Stats["iterations"])
				if gap, ok := sr.Stats["gap"]; ok {
					ssp.Arg("gap", gap)
				}
			}
		}
		ssp.End()
		asp := tk.Begin("apply")
		if err := w.applyGrants(j, in, sr.Grants, &out); err != nil {
			return err
		}
		out.addPayments(sr.Grants, sr.Prices)
		if v, ok := sr.Stats["shards"]; ok {
			out.shards = v // last bidding round's partition stands for the slot
		}
		asp.End()
	}
	esp := tk.Begin("economics")
	w.playback(&out)
	w.clearDelivered()
	if err := recordSlot(w, res, &out); err != nil {
		return err
	}
	if tk != nil {
		esp.Arg("welfare", out.welfare).
			Arg("grants", float64(out.grants)).
			Arg("inter_isp", float64(out.interISP)).
			Arg("payments", out.payments)
	}
	esp.End()
	err := finishSlot(w, &out)
	w.departScratch = out.departures[:0]
	slotSpan.End()
	return err
}

// recordSlot appends the slot's metrics.
func recordSlot(w *world, res *Results, out *slotOutcome) error {
	t := float64(w.slot) * w.cfg.SlotSeconds
	if err := res.Welfare.Add(t, out.welfare); err != nil {
		return err
	}
	interFrac := 0.0
	if out.grants > 0 {
		interFrac = float64(out.interISP) / float64(out.grants)
	}
	if err := res.InterISP.Add(t, interFrac); err != nil {
		return err
	}
	missRate := 0.0
	if out.played > 0 {
		missRate = float64(out.missed) / float64(out.played)
	}
	if err := res.MissRate.Add(t, missRate); err != nil {
		return err
	}
	if err := res.Online.Add(t, float64(w.online())); err != nil {
		return err
	}
	if err := res.Payments.Add(t, out.payments); err != nil {
		return err
	}
	if err := res.Shards.Add(t, out.shards); err != nil {
		return err
	}
	if err := res.CrossISPBytes.Add(t, float64(out.interISP)*w.cfg.ChunkBytes()); err != nil {
		return err
	}
	// Snapshot and reset the slot's traffic ledger; the snapshots partition
	// the run ledger exactly (TestSlotTrafficRecombines pins it).
	res.SlotTraffic = append(res.SlotTraffic, w.slotTraffic.Clone())
	w.slotTraffic.Reset()
	res.TotalGrants += int64(out.grants)
	res.TotalPayments += out.payments
	res.TotalInterISP += int64(out.interISP)
	res.TotalMissed += out.missed
	res.TotalPlayed += out.played
	res.ServedP2P += out.servedP2P
	res.ServedEdge += out.servedEdge
	res.ServedOrigin += out.servedOrigin
	res.EdgeCacheHits += out.edgeHits
	res.EdgeCacheMisses += out.edgeMisses
	res.BackhaulChunks += out.backhaul
	if w.cfg.CDN.Enabled {
		// Publish the slot's tier accounting to the process-wide /metrics
		// families (telemetry only — results carry their own counters).
		cdn.RecordSlot(out.servedP2P, out.servedEdge, out.servedOrigin,
			out.backhaul, out.edgeHits, out.edgeMisses, w.cfg.ChunkBytes())
	}
	return nil
}

// finishSlot applies departures and arrivals for the next slot.
func finishSlot(w *world, out *slotOutcome) error {
	for _, id := range out.departures {
		w.removePeer(id)
		if w.cfg.Scenario == ScenarioStatic {
			// Keep the static population constant: replace the finished
			// watcher with a fresh one.
			if err := w.spawnStaticPeer(); err != nil {
				return err
			}
		}
	}
	if err := w.applyCrashFaults(); err != nil {
		return err
	}
	if w.cfg.Scenario == ScenarioDynamic {
		arrivals := w.rngChurn.Poisson(w.cfg.ArrivalRate(w.slot) * w.cfg.SlotSeconds)
		for i := 0; i < arrivals; i++ {
			if err := w.spawnDynamicPeer(); err != nil {
				return err
			}
		}
	}
	return nil
}
