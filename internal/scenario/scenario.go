// Package scenario is the declarative workload engine: every runnable
// workload in the repository — the paper's VoD swarms, churn and flash-crowd
// dynamics, standalone solver instances, even the live TCP protocol demo — is
// a Spec value naming its topology, workload shape, solver and scale. A
// registry ships the built-in presets (see builtin.go and the README's
// scenario catalog); cmd/p2psim and the examples/ are thin calls through it.
//
// A Spec runs one of three workload kinds:
//
//   - KindSim: the slot-based P2P streaming simulator (internal/sim), with
//     any registered solver — the paper's evaluation environment;
//   - KindTransport: the bare assignment solvers on random transportation
//     instances, always cross-checked against the exact optimum;
//   - KindLive: the distributed auction protocol over real TCP sockets
//     (internal/live).
//
// Spec.Run(seed) executes one deterministic run and reduces it to a flat
// map of named scalar metrics; Batch fans a spec out over seed lists and
// parameter grids on a worker pool and aggregates mean/p50/p95 summaries
// (batch.go), exportable as JSON or CSV (output.go).
//
// The paper's calibrated configuration (ReproConfig, At) and its figure
// reports (Reports, driven by `p2psim -exp`) live here too, in paper.go and
// report.go, so the figures and the presets come from one catalog.
package scenario

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/auction"
	"repro/internal/baseline"
	"repro/internal/behavior"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/economics"
	"repro/internal/live"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// Kind selects a Spec's workload family.
type Kind int

const (
	// KindSim runs the slot-based P2P streaming simulator.
	KindSim Kind = iota + 1
	// KindTransport runs solvers on random transportation instances.
	KindTransport
	// KindLive runs the distributed auction protocol over TCP sockets.
	KindLive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSim:
		return "sim"
	case KindTransport:
		return "transport"
	case KindLive:
		return "live"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Solver names a scheduling/solving strategy. The auction's sharded and
// message-level variants are solvers of their own, so a spec names exactly
// the scheduler that runs.
type Solver string

// Registered solvers.
const (
	// SolverAuction is the paper's primal-dual auction, Gauss–Seidel rounds.
	SolverAuction Solver = "auction"
	// SolverAuctionSharded is the sharded swarm orchestrator
	// (cluster.ShardedAuction, sim only): the slot problem is partitioned into
	// its independent swarm components, each solved cold by its own
	// sched.Auction, concurrently per Spec.Sharding. The grants and prices
	// equal SolverAuction's bit for bit (see docs/ARCHITECTURE.md §10).
	SolverAuctionSharded Solver = "auction-sharded"
	// SolverAuctionDES plays the auction as the paper's distributed
	// protocol, message by message over a latency-accurate network
	// (sim.DES, sim only). It records the λ_u trace behind Fig. 2 and loses
	// messages at Sim.Fault.DropProb.
	SolverAuctionDES Solver = "auction-des"
	// SolverExact is the exact min-cost-flow optimum (ground truth).
	SolverExact Solver = "exact"
	// SolverLocality is the paper's Simple Locality baseline (sim only).
	SolverLocality Solver = "locality"
	// SolverRandom is the network-agnostic random baseline (sim only).
	SolverRandom Solver = "random"
)

// Solvers lists every solver usable in a KindSim spec.
func Solvers() []Solver {
	return []Solver{SolverAuction, SolverAuctionSharded,
		SolverAuctionDES, SolverExact, SolverLocality, SolverRandom}
}

// Scheduler instantiates the spec's solver as a slot scheduler for cfg. Call
// it once per run: the sharded scheduler carries state across a run's slots
// and must not leak across runs.
func (s Spec) Scheduler(cfg sim.Config) (sched.Scheduler, error) {
	switch s.Solver {
	case SolverAuction:
		return &sched.Auction{Epsilon: cfg.Epsilon}, nil
	case SolverAuctionSharded:
		return &cluster.ShardedAuction{Epsilon: cfg.Epsilon, Workers: s.Sharding.Workers}, nil
	case SolverAuctionDES:
		return &sim.DES{}, nil
	case SolverExact:
		return &sched.Exact{}, nil
	case SolverLocality:
		return &baseline.Locality{Rounds: cfg.LocalityRounds}, nil
	case SolverRandom:
		return &baseline.Random{Seed: cfg.Seed, Rounds: cfg.LocalityRounds}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown solver %q (want one of %v)", s.Solver, Solvers())
	}
}

// TransportParams describes the random transportation instances of a
// KindTransport spec (the shape of one slot's scheduling problem).
type TransportParams struct {
	// TransportShape bounds each instance (RandomTransport).
	TransportShape
	// Trials is how many instances one run solves (metrics average over them).
	Trials int
	// Epsilon is the auction bid increment.
	Epsilon float64
}

// LiveParams describes a KindLive spec: a TCP hub, uploaders selling
// bandwidth and downloaders bidding for chunks, exactly the shape of
// examples/livenet.
type LiveParams struct {
	// UploaderCosts gives one uploader per entry; the cost every downloader
	// sees for that uploader (e.g. {1, 4} = one local, one remote uplink).
	UploaderCosts []float64
	// UploaderCapacity is each uploader's bandwidth units.
	UploaderCapacity int
	// Downloaders is the number of competing downloaders.
	Downloaders int
	// ChunksPerDownloader is how many chunks each downloader wants.
	ChunksPerDownloader int
	// TopValue is downloader 0's per-chunk valuation; downloader i bids
	// TopValue − i, giving the contest a deterministic pecking order.
	TopValue float64
	// Epsilon is the auction bid increment.
	Epsilon float64
}

// Sharding configures SolverAuctionSharded's orchestrator.
type Sharding struct {
	// Workers bounds concurrent shard solves (0 or 1 = sequential).
	Workers int
}

// Spec declares one scenario: what world to build, what workload to drive
// through it, and which solver schedules it. Specs are plain values — copy
// and mutate freely (WithSolver, ApplyParam) to derive variants.
type Spec struct {
	// Name is the registry key (kebab-case).
	Name string
	// Summary is the one-line catalog description.
	Summary string
	// Workload labels the traffic shape ("vod", "churn", "flash-crowd",
	// "diurnal", "solver", "protocol") for reports.
	Workload string
	// Kind selects the workload family.
	Kind Kind
	// Solver schedules KindSim slots, solves KindTransport instances, or —
	// for KindLive, which only plays the distributed auction — is
	// SolverAuction.
	Solver Solver
	// Sharding sizes SolverAuctionSharded's worker pool; other solvers
	// ignore it.
	Sharding Sharding
	// Heavy marks scenarios too large for routine double-run golden tests;
	// they are smoke-tested once instead.
	Heavy bool
	// Transit selects the inter-ISP settlement model that prices a KindSim
	// run's traffic matrix (internal/economics). The zero value bills every
	// cross-ISP GB at the default flat rate; sweep the rate with the
	// `transit-cost` parameter. The neighbor-selection locality policy that
	// shapes the traffic itself lives in Sim.Locality (`locality` /
	// `cross-cap` sweep parameters).
	Transit economics.TransitSpec
	// Behavior selects the strategic-peer/ISP misbehavior axis for KindSim
	// runs (internal/behavior): free-rider fractions, bid shading, colluding
	// cliques, tit-for-tat reciprocity and ISP cross-traffic throttles. The
	// zero value is the honest population — no runtime is compiled and the
	// run is bit-identical to a spec without the field. A non-zero spec also
	// runs the honest control at the same seed and attaches the
	// equilibrium-degradation report (Result.Degradation). Sweepable via the
	// `free-rider-frac`, `shade-factor`, `clique-size` and `throttle-cap`
	// parameters.
	Behavior behavior.Spec

	// Sim configures KindSim (the Seed field is overwritten per run).
	Sim sim.Config
	// Transport configures KindTransport.
	Transport TransportParams
	// Live configures KindLive.
	Live LiveParams
}

// WithSolver returns a copy of the spec scheduled by a different solver.
func (s Spec) WithSolver(sv Solver) Spec {
	s.Solver = sv
	return s
}

// Validate checks the spec is runnable.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if !slices.Contains(Solvers(), s.Solver) {
		return fmt.Errorf("scenario %s: unknown solver %q (want one of %v)", s.Name, s.Solver, Solvers())
	}
	switch s.Kind {
	case KindSim:
		if _, err := s.Scheduler(s.Sim); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		cfg := s.Sim
		cfg.Seed = 1
		cfg.Behavior = s.Behavior
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if _, err := s.Transit.Build(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		// A typo'd peering pair would silently bill full transit (it can
		// never match a real ISP); reject ids outside the sim's ISP range.
		for _, pr := range s.Transit.Peered {
			for _, id := range pr {
				if id < 0 || id >= s.Sim.NumISPs {
					return fmt.Errorf("scenario %s: peered ISP %d outside [0,%d)",
						s.Name, id, s.Sim.NumISPs)
				}
			}
		}
	case KindTransport:
		switch s.Solver {
		case SolverAuction, SolverExact:
		default:
			return fmt.Errorf("scenario %s: solver %q cannot solve bare transportation instances",
				s.Name, s.Solver)
		}
		if !s.Behavior.IsZero() {
			return fmt.Errorf("scenario %s: behavior policies apply to streaming swarms (KindSim), not bare transport instances", s.Name)
		}
		t := s.Transport
		if t.Requests <= 0 || t.Sinks <= 0 || t.Trials <= 0 {
			return fmt.Errorf("scenario %s: transport needs positive requests/sinks/trials", s.Name)
		}
		if t.MaxDegree <= 0 || t.MinCapacity <= 0 || t.MaxCapacity < t.MinCapacity {
			return fmt.Errorf("scenario %s: transport degree/capacity bounds invalid", s.Name)
		}
		if t.MaxWeight < t.MinWeight {
			return fmt.Errorf("scenario %s: transport weight bounds inverted", s.Name)
		}
		if t.Epsilon < 0 {
			return fmt.Errorf("scenario %s: negative epsilon", s.Name)
		}
	case KindLive:
		if s.Solver != SolverAuction {
			return fmt.Errorf("scenario %s: live scenarios always run the distributed auction; cannot use solver %q",
				s.Name, s.Solver)
		}
		if !s.Behavior.IsZero() {
			return fmt.Errorf("scenario %s: behavior policies are not plumbed through the live TCP engine", s.Name)
		}
		l := s.Live
		if len(l.UploaderCosts) == 0 || l.UploaderCapacity <= 0 {
			return fmt.Errorf("scenario %s: live needs uploaders with capacity", s.Name)
		}
		if l.Downloaders <= 0 || l.ChunksPerDownloader <= 0 {
			return fmt.Errorf("scenario %s: live needs downloaders wanting chunks", s.Name)
		}
		if l.Epsilon <= 0 {
			return fmt.Errorf("scenario %s: live needs a positive epsilon", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown kind %d", s.Name, s.Kind)
	}
	return nil
}

// Result is one run's output, reduced to named scalar metrics. Series carries
// the per-slot curves behind them for charts (KindSim only).
type Result struct {
	Scenario string
	Workload string
	Solver   string
	Seed     uint64
	Metrics  map[string]float64
	// Traffic is the run's ISP×ISP chunk-transfer ledger (KindSim only).
	Traffic *economics.Matrix `json:",omitempty"`
	// PerISPMissRate is each ISP's watchers' aggregate miss rate (KindSim
	// only): the per-ISP view behind the fairness metric.
	PerISPMissRate []float64 `json:"-"`
	// Settlement prices Traffic under the spec's transit model (KindSim
	// only): the per-ISP cost table behind the transit_usd metric.
	Settlement *economics.Settlement `json:",omitempty"`
	// Degradation compares this run against the honest control at the same
	// seed — welfare lost, transit shifted, per-ISP settlement deltas. Only
	// present for KindSim runs with a non-zero Spec.Behavior.
	Degradation *economics.Degradation `json:",omitempty"`
	// Offload is the hybrid CDN tier report — per-tier served shares, edge
	// cache economics and the CDN bill next to the transit bill. Only
	// present for KindSim runs with Sim.CDN.Enabled.
	Offload *economics.Offload `json:",omitempty"`
	Series  []*metrics.Series  `json:"-"`
	// PriceTrace is a representative peer's λ_u over simulated time (Fig. 2;
	// SolverAuctionDES runs only).
	PriceTrace *metrics.Series `json:"-"`
	Elapsed    time.Duration   `json:"-"`
}

// ParetoPoint reduces the run to its welfare-vs-transit coordinates for
// cross-policy comparison (economics.Frontier).
func (r *Result) ParetoPoint(label string) economics.Point {
	return economics.Point{
		Label:      label,
		Welfare:    r.Metrics["welfare_total"],
		TransitUSD: r.Metrics["transit_usd"],
	}
}

// MetricNames returns the metric keys in stable (sorted) order.
func (r *Result) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Run executes the spec once under the given seed.
func (s Spec) Run(seed uint64) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	sp := obs.TrackFor("scenario").Begin("run/" + s.Name)
	sp.Arg("seed", float64(seed))
	var (
		res *Result
		err error
	)
	switch s.Kind {
	case KindSim:
		res, err = s.runSim(seed)
	case KindTransport:
		res, err = s.runTransport(seed)
	case KindLive:
		res, err = s.runLive(seed)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	res.Scenario = s.Name
	res.Workload = s.Workload
	res.Solver = string(s.Solver)
	res.Seed = seed
	res.Elapsed = time.Since(start)
	return res, nil
}

// runSim executes a simulator scenario.
func (s Spec) runSim(seed uint64) (*Result, error) {
	cfg := s.Sim
	cfg.Seed = seed
	cfg.Behavior = s.Behavior
	scheduler, err := s.Scheduler(cfg)
	if err != nil {
		return nil, err
	}
	r, err := sim.Run(cfg, scheduler)
	if err != nil {
		return nil, err
	}
	model, err := s.Transit.Build()
	if err != nil {
		return nil, err
	}
	settlement, err := economics.Settle(r.TrafficMatrix, cfg.ChunkBytes(), model)
	if err != nil {
		return nil, err
	}
	welfareSum := 0.0
	for _, v := range r.Welfare.Values() {
		welfareSum += v
	}
	res := &Result{
		Metrics: map[string]float64{
			"welfare_per_slot": r.Welfare.Summarize().Mean,
			"welfare_final":    r.Welfare.Last(),
			"welfare_total":    welfareSum,
			"inter_isp":        r.MeanInterISPFraction(),
			"miss_rate":        r.MeanMissRate(),
			"missed":           float64(r.TotalMissed),
			"fairness":         r.MissRateFairness(),
			"grants":           float64(r.TotalGrants),
			"payments":         r.TotalPayments,
			"joined":           float64(r.Joined),
			"departed":         float64(r.Departed),
			"cross_isp_chunks": float64(r.TotalInterISP),
			"cross_isp_gb":     settlement.CrossGB,
			"transit_usd":      settlement.TransitUSD,
		},
		PriceTrace:     r.PriceTrace,
		Traffic:        r.TrafficMatrix,
		PerISPMissRate: r.PerISPMissRate,
		Settlement:     settlement,
		Series: []*metrics.Series{
			&r.Welfare, &r.InterISP, &r.MissRate, &r.Online, &r.CrossISPBytes,
		},
	}
	if cfg.CDN.Enabled {
		off, err := economics.ComputeOffload(r.TierCounts(), cfg.ChunkBytes(), cfg.CDN.Pricing)
		if err != nil {
			return nil, err
		}
		res.Offload = off
		res.Metrics["offload_ratio"] = off.OffloadRatio
		res.Metrics["cdn_usd"] = off.CDNUSD
		res.Metrics["edge_hit_rate"] = off.EdgeHitRate
		res.Metrics["served_p2p_chunks"] = float64(r.ServedP2P)
		res.Metrics["served_edge_chunks"] = float64(r.ServedEdge)
		res.Metrics["served_origin_chunks"] = float64(r.ServedOrigin)
		res.Metrics["backhaul_gb"] = off.BackhaulGB
	}
	if !cfg.Fault.IsZero() {
		// Only under active fault injection: a fault-free run's metric map
		// stays bit-identical to builds that predate the fault layer.
		res.Metrics["crashes"] = float64(r.Crashes)
		res.Metrics["rejoins"] = float64(r.Rejoins)
	}
	if sa, ok := scheduler.(*cluster.ShardedAuction); ok {
		res.Metrics["shards_mean"] = r.Shards.Summarize().Mean
		res.Series = append(res.Series, &r.Shards)
		st := sa.Stats()
		res.Metrics["shards_born"] = float64(st.Born)
		res.Metrics["shards_retired"] = float64(st.Retired)
		res.Metrics["shard_migrations"] = float64(st.Migrations)
	}
	if !s.Behavior.IsZero() {
		// Run the honest control at the same seed — the behavior RNG stream
		// is keyed independently, so the control shares topology, arrivals
		// and capacities and every delta is caused by the misbehavior. The
		// recursion bottoms out immediately: the control's Behavior is zero.
		honest := s
		honest.Behavior = behavior.Spec{}
		hres, err := honest.runSim(seed)
		if err != nil {
			return nil, fmt.Errorf("honest control run: %w", err)
		}
		// Both comparison axes are miss-adjusted (see economics/degradation.go):
		// welfare charges each miss its forgone value at the playback moment
		// (d = 0, the valuation ceiling), and transit charges each run's
		// missed chunks as origin-CDN fallback volume under the same transit
		// model. Without both, degraded service masquerades as improvement —
		// the urgency valuation pays more for later fetches and an idle swarm
		// pays no transit.
		missPenalty := cfg.Valuation.Max
		gbPerChunk := cfg.ChunkBytes() / 1e9
		deg, err := economics.Degrade(s.Behavior.String(),
			economics.RunLedger{
				Welfare:    hres.Metrics["welfare_total"] - missPenalty*hres.Metrics["missed"],
				OriginGB:   hres.Metrics["missed"] * gbPerChunk,
				Settlement: hres.Settlement,
			},
			economics.RunLedger{
				Welfare:    welfareSum - missPenalty*float64(r.TotalMissed),
				OriginGB:   float64(r.TotalMissed) * gbPerChunk,
				Settlement: settlement,
			},
			model)
		if err != nil {
			return nil, err
		}
		res.Degradation = deg
		res.Metrics["honest_welfare_total"] = hres.Metrics["welfare_total"]
		res.Metrics["welfare_loss"] = deg.WelfareLoss
		res.Metrics["welfare_loss_pct"] = deg.WelfareLossPct
		res.Metrics["transit_delta_usd"] = deg.TransitDeltaUSD
	}
	return res, nil
}

// runTransport solves Trials random transportation instances with the chosen
// solver and cross-checks each against the exact optimum.
func (s Spec) runTransport(seed uint64) (*Result, error) {
	t := s.Transport
	rng := randx.New(seed)
	var welfare, exactWelfare, gapPct, iters, bids, assigned, stalls float64
	for trial := 0; trial < t.Trials; trial++ {
		p := RandomTransport(rng, t.TransportShape)
		exact, err := core.SolveExact(p)
		if err != nil {
			return nil, err
		}
		opt := exact.Welfare(p)
		exactWelfare += opt
		var got float64
		if s.Solver == SolverExact {
			got = opt
			assigned += float64(exact.Assigned())
		} else {
			res, err := core.SolveAuction(p, core.AuctionOptions{Epsilon: t.Epsilon})
			if err != nil {
				return nil, err
			}
			if err := core.VerifyEpsilonCS(p, res.Assignment, res.Prices, t.Epsilon, 1e-9); err != nil {
				return nil, fmt.Errorf("certificate rejected: %w", err)
			}
			got = res.Assignment.Welfare(p)
			iters += float64(res.Iterations)
			bids += float64(res.Bids)
			assigned += float64(res.Assignment.Assigned())
			if res.Stalled {
				stalls++
			}
		}
		welfare += got
		if opt > 0 {
			gapPct += 100 * (opt - got) / opt
		}
	}
	n := float64(t.Trials)
	return &Result{
		Metrics: map[string]float64{
			"welfare":       welfare / n,
			"exact_welfare": exactWelfare / n,
			"gap_pct":       gapPct / n,
			"iterations":    iters / n,
			"bids":          bids / n,
			"assigned":      assigned / n,
			"stalls":        stalls, // stalled solves in the run, not a mean
		},
	}, nil
}

// runLive plays the distributed auction protocol over a real TCP hub. The
// contest is value-ordered by construction, so the win counts are
// deterministic even though message timing is not; price-dependent
// quantities are deliberately not reported.
func (s Spec) runLive(_ uint64) (*Result, error) {
	l := s.Live
	hub, err := live.NewHub()
	if err != nil {
		return nil, err
	}
	defer hub.Close()

	downIDs := make([]int32, l.Downloaders)
	for i := range downIDs {
		downIDs[i] = int32(100 + i)
	}
	upIDs := make([]int32, len(l.UploaderCosts))
	uploaders := make([]*live.Peer, len(l.UploaderCosts))
	for i := range l.UploaderCosts {
		upIDs[i] = int32(1 + i)
		up, err := live.Dial(hub.Addr(), upIDs[i], l.Epsilon, l.UploaderCapacity)
		if err != nil {
			return nil, err
		}
		defer up.Close()
		up.SetNeighbors(downIDs)
		uploaders[i] = up
	}

	downloaders := make([]*live.Peer, l.Downloaders)
	for i := range downloaders {
		p, err := live.Dial(hub.Addr(), downIDs[i], l.Epsilon, 0)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		p.SetNeighbors(upIDs)
		downloaders[i] = p

		var reqs []auction.Request
		for c := 0; c < l.ChunksPerDownloader; c++ {
			var cands []auction.Candidate
			for u, cost := range l.UploaderCosts {
				cands = append(cands, auction.Candidate{Peer: auction.PeerRef(upIDs[u]), Cost: cost})
			}
			reqs = append(reqs, auction.Request{
				Chunk:      video.ChunkID{Video: 0, Index: video.ChunkIndex(l.ChunksPerDownloader*i + c)},
				Value:      l.TopValue - float64(i),
				Candidates: cands,
			})
		}
		if err := p.Bid(reqs); err != nil {
			return nil, err
		}
	}

	peers := append(append([]*live.Peer{}, uploaders...), downloaders...)
	for _, p := range peers {
		if err := p.WaitQuiescent(150*time.Millisecond, 30*time.Second); err != nil {
			return nil, err
		}
	}

	m := map[string]float64{
		"requested": float64(l.Downloaders * l.ChunksPerDownloader),
	}
	total := 0
	for i, d := range downloaders {
		wins := len(d.Wins())
		total += wins
		m[fmt.Sprintf("wins_downloader_%d", i)] = float64(wins)
	}
	m["wins_total"] = float64(total)
	return &Result{Metrics: m}, nil
}
