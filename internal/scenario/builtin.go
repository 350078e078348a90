package scenario

import (
	"repro/internal/behavior"
	"repro/internal/cdn"
	"repro/internal/economics"
	"repro/internal/fault"
	"repro/internal/isp"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// smallSim returns the calibrated reproduction config at the fast evaluation
// size (ScaleSmall): the shared starting point of the presets.
func smallSim() sim.Config {
	cfg, err := At(ScaleSmall)
	if err != nil {
		panic(err) // ScaleSmall is a known scale
	}
	return cfg
}

// Built-in presets. Every entry here must appear in the README's scenario
// catalog table; the golden tests in registry_test.go run each one.
func init() {
	// quickstart — the 30-second tour: a small static VoD swarm under the
	// paper's auction (ported from examples/quickstart).
	quick := smallSim()
	quick.StaticPeers = 40
	quick.Slots = 6
	quick.Catalog.Count = 10
	quick.Catalog.SizeMB = 4
	quick.NeighborCount = 12
	MustRegister(Spec{
		Name:     "quickstart",
		Summary:  "small static VoD swarm under the primal-dual auction",
		Workload: "vod",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Sim:      quick,
	})

	// vodstreaming — the paper's static evaluation scenario at example size
	// (ported from examples/vodstreaming; compare solvers with WithSolver).
	vod := smallSim()
	vod.StaticPeers = 80
	vod.Slots = 10
	MustRegister(Spec{
		Name:     "vodstreaming",
		Summary:  "static Zipf-popular VoD swarm, the paper's §V environment",
		Workload: "vod",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Sim:      vod,
	})

	// churn — the paper's Fig. 6 peer-dynamics workload (ported from
	// examples/churn): Poisson arrivals, 60% leave before finishing.
	churn := smallSim()
	churn.Scenario = sim.ScenarioDynamic
	churn.Slots = 10
	churn.ArrivalPerSec = 1
	churn.EarlyLeaveProb = 0.6
	MustRegister(Spec{
		Name:     "churn",
		Summary:  "dynamic arrivals with 60% early departures (paper Fig. 6)",
		Workload: "churn",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Sim:      churn,
	})

	// churn-warm — the same Fig. 6 churn workload scheduled by the
	// warm-started incremental auction (sched.WarmAuction): prices and
	// partial assignments carry across slots, so each slot re-converges from
	// the previous market instead of from λ = 0. Welfare matches the cold
	// auction (golden-tested in warm_test.go); docs/PERFORMANCE.md records
	// the speedup. Sweep `warmstart=0,1` on any auction sim scenario to compare.
	MustRegister(Spec{
		Name:     "churn-warm",
		Summary:  "the churn workload under the warm-started incremental auction",
		Workload: "churn",
		Kind:     KindSim,
		Solver:   SolverAuctionWarm,
		Sim:      churn,
	})

	// chaos-churn — the churn workload under fault injection: on top of the
	// Fig. 6 dynamics, 5% of live watchers crash-stop each slot (mid-download
	// state lost, no graceful departure) and respawn as fresh arrivals two
	// slots later. The crash stream is seed-derived and independent of the
	// arrival/departure draws, so `-sweep "crash-prob=0,0.05,0.15"` holds the
	// underlying churn trace fixed while the crash rate moves. The run surfaces
	// `crashes`/`rejoins` metrics; crash-prob=0 is bit-identical to plain churn.
	chaos := churn
	chaos.Fault = fault.Spec{CrashProb: 0.05, RejoinAfterSlots: 2}
	MustRegister(Spec{
		Name:     "chaos-churn",
		Summary:  "churn workload with 5% per-slot crash-stops rejoining after 2 slots",
		Workload: "churn",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Sim:      chaos,
	})

	// flash-crowd — a premiere spike: the arrival rate jumps 6× for two
	// slots mid-run, stressing price re-convergence and local supply.
	flash := smallSim()
	flash.Scenario = sim.ScenarioDynamic
	flash.Slots = 12
	flash.ArrivalPerSec = 0.8
	flash.Arrival = sim.ArrivalFlashCrowd
	flash.FlashSlot = 4
	flash.FlashSlots = 2
	flash.FlashMultiplier = 6
	MustRegister(Spec{
		Name:     "flash-crowd",
		Summary:  "arrival rate spikes 6x for two slots mid-run",
		Workload: "flash-crowd",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Sim:      flash,
	})

	// diurnal — a day/night arrival cycle over the run: the swarm drains to
	// 20% of peak arrivals and refills, exercising both supply-scarce and
	// supply-rich regimes in one run.
	diurnal := smallSim()
	diurnal.Scenario = sim.ScenarioDynamic
	diurnal.Slots = 12
	diurnal.ArrivalPerSec = 1
	diurnal.Arrival = sim.ArrivalDiurnal
	diurnal.DiurnalPeriodSlots = 12
	diurnal.DiurnalMinFactor = 0.2
	MustRegister(Spec{
		Name:     "diurnal",
		Summary:  "raised-cosine day/night arrival cycle (trough 20% of peak)",
		Workload: "diurnal",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Sim:      diurnal,
	})

	// asymmetric-cost — eight ISPs with a wide, noisy inter-ISP cost spread
	// (transit vs peering): locality pressure differs per ISP pair, so
	// ISP-aware scheduling matters more than under the paper's uniform model.
	asym := smallSim()
	asym.NumISPs = 8
	asym.StaticPeers = 64
	asym.Cost = isp.CostModel{
		IntraMean: 1, IntraStd: 1, IntraMin: 0, IntraMax: 2,
		InterMean: 8, InterStd: 4, InterMin: 1, InterMax: 20,
	}
	MustRegister(Spec{
		Name:     "asymmetric-cost",
		Summary:  "8 ISPs with wide transit/peering cost spread",
		Workload: "vod",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Sim:      asym,
	})

	// large-scale — a ~10k-peer swarm scheduled by the parallel Jacobi
	// auction: the scale stress test (single-seed smoke in tests; use the
	// batch runner for sweeps).
	large := smallSim()
	large.StaticPeers = 10000
	large.Slots = 4
	// Short slots keep the per-slot problem tractable at 10k peers: the
	// 25-chunk window covers one slot of playback (~24 chunks at 2.5 s),
	// so misses reflect scheduling quality, not structural starvation.
	large.SlotSeconds = 2.5
	large.BidRoundsPerSlot = 1
	large.WindowChunks = 25
	large.NeighborCount = 20
	large.Catalog.Count = 100
	large.Catalog.SizeMB = 8
	MustRegister(Spec{
		Name:          "large-scale",
		Summary:       "10k-peer swarm under the parallel Jacobi auction",
		Workload:      "vod",
		Kind:          KindSim,
		Solver:        SolverAuctionJacobi,
		SolverWorkers: 8,
		Heavy:         true,
		Sim:           large,
	})

	// mega-swarm — the 100k-peer scale target: ~500 parallel swarms, each an
	// independent component of the slot problem, scheduled by the sharded
	// orchestrator (cluster.ShardedAuction) with 8 shard workers. Short
	// slots and a tight window keep the per-slot problem's shape faithful to
	// large-scale while the shard partition does the scaling (see
	// docs/PERFORMANCE.md for the sharded-vs-monolithic curve). Routine
	// tests run it shrunken (Heavy); drive the full size with
	// `p2psim -scenario mega-swarm` or the batch runner.
	mega := smallSim()
	mega.StaticPeers = 100000
	mega.Slots = 2
	// One-second slots keep the per-slot problem tractable at 100k peers
	// and let the 10-chunk window cover a full slot of playback (~10 chunks
	// at 1 s), the same calibration rule as large-scale: misses then reflect
	// scheduling quality, not structural starvation.
	mega.SlotSeconds = 1
	mega.BidRoundsPerSlot = 1
	mega.WindowChunks = 10
	mega.NeighborCount = 8
	mega.Catalog.Count = 500
	mega.Catalog.SizeMB = 8
	mega.Placement = sim.SeedsGlobal
	MustRegister(Spec{
		Name:     "mega-swarm",
		Summary:  "100k peers across ~500 swarms under the sharded orchestrator",
		Workload: "vod",
		Kind:     KindSim,
		Solver:   SolverAuctionSharded,
		Sharding: Sharding{Workers: 8},
		Heavy:    true,
		Sim:      mega,
	})

	// sharded-churn — swarm churn at scale: a dynamic network ramping toward
	// ~100k cumulative arrivals with 60% early departures, scheduled sharded.
	// Exercises the orchestrator's whole lifecycle — shard birth as swarms
	// form, per-shard warm deltas as peers come and go, idle reclamation as
	// swarms drain — under the paper's Fig. 6 dynamics.
	shardedChurn := smallSim()
	shardedChurn.Scenario = sim.ScenarioDynamic
	shardedChurn.Slots = 10
	shardedChurn.SlotSeconds = 1 // window covers a slot of playback, as above
	shardedChurn.BidRoundsPerSlot = 1
	shardedChurn.WindowChunks = 10
	shardedChurn.NeighborCount = 10
	shardedChurn.Catalog.Count = 200
	shardedChurn.Catalog.SizeMB = 8
	shardedChurn.Placement = sim.SeedsGlobal
	shardedChurn.ArrivalPerSec = 10000
	shardedChurn.EarlyLeaveProb = 0.6
	MustRegister(Spec{
		Name:     "sharded-churn",
		Summary:  "high-churn arrivals toward 100k peers under the sharded orchestrator",
		Workload: "churn",
		Kind:     KindSim,
		Solver:   SolverAuctionSharded,
		Sharding: Sharding{Workers: 8},
		Heavy:    true,
		Sim:      shardedChurn,
	})

	// locality-sweep — the inter-ISP economics workbench: the vodstreaming
	// world under ISP-biased neighbor selection (Le Blond et al.'s biased
	// tracker) and a flat transit bill. Sweep the locality knob to trace the
	// welfare-vs-transit trade-off — `-sweep "locality=0,0.5,0.9"` — or
	// compare solvers at fixed locality with `-isp-report`, which prints the
	// per-ISP settlement table and the Pareto series against the baselines.
	locSweep := smallSim()
	locSweep.StaticPeers = 100
	locSweep.Slots = 8
	// Few videos and a tight neighbor cap make swarms (~25 peers) much
	// larger than the neighbor list: the tracker must *choose* neighbors,
	// which is the regime where biased selection changes list membership —
	// with swarms under the cap every policy returns everyone and locality
	// is a no-op.
	locSweep.Catalog.Count = 4
	locSweep.NeighborCount = 8
	locSweep.Locality = tracker.Policy{Kind: tracker.PolicyISPBias, BiasP: 0.8}
	MustRegister(Spec{
		Name:     "locality-sweep",
		Summary:  "ISP-biased neighbor selection under a flat transit bill (sweep locality=0..1)",
		Workload: "locality",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Transit:  economics.TransitSpec{Kind: "flat", USDPerGB: 1},
		Sim:      locSweep,
	})

	// isp-peering — the settlement-structure workbench: six ISPs with a wide
	// transit/peering cost spread, a hard cross-ISP neighbor cap (Le Blond's
	// locality pushed near its limit), and a peering-aware transit model in
	// which ISPs {0,1} and {2,3} exchange traffic settlement-free while
	// everyone else pays tiered volume-discount transit — Xu et al.'s
	// eyeball-ISP economics. ISPs 4 and 5 peer with nobody: their transit
	// bill is the price of isolation.
	peering := smallSim()
	peering.NumISPs = 6
	peering.StaticPeers = 72
	peering.Slots = 8
	peering.Cost = isp.CostModel{
		IntraMean: 1, IntraStd: 1, IntraMin: 0, IntraMax: 2,
		InterMean: 8, InterStd: 4, InterMin: 1, InterMax: 20,
	}
	// Same sizing rule as locality-sweep: swarms (~18 peers) larger than the
	// neighbor list, so the cross-ISP cap actually decides membership.
	peering.Catalog.Count = 4
	peering.NeighborCount = 10
	peering.Locality = tracker.Policy{Kind: tracker.PolicyCrossCap, MaxCross: 4}
	MustRegister(Spec{
		Name:     "isp-peering",
		Summary:  "6 ISPs, two settlement-free peering pairs, tiered transit, capped cross-ISP neighbors",
		Workload: "locality",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Transit: economics.TransitSpec{
			Kind:   "peering",
			Tiers:  economics.DefaultTiers(),
			Peered: [][2]int{{0, 1}, {2, 3}},
		},
		Sim: peering,
	})

	// free-rider-sweep — the strategic-behavior workbench: a seed-scarce
	// economics world (seeds placed globally, not per ISP, so local chunk
	// supply is peer replication, not seed bandwidth) in which 30% of peers
	// upload nothing after joining. Killing local replication forces the
	// swarm onto remote uploaders across ISP boundaries: welfare falls AND
	// the flat transit bill rises, so the honest control weakly dominates —
	// the equilibrium-degradation golden. Sweep the fraction with
	// `-sweep "free-rider-frac=0,0.1,0.3,0.5"`; the degradation report
	// rides along in every JSON export.
	freeRider := smallSim()
	freeRider.StaticPeers = 100
	freeRider.Slots = 8
	freeRider.Catalog.Count = 4
	freeRider.NeighborCount = 8
	freeRider.SeedsPerVideo = 2
	freeRider.Placement = sim.SeedsGlobal
	MustRegister(Spec{
		Name:     "free-rider-sweep",
		Summary:  "30% free-riders in a seed-scarce world under a flat transit bill",
		Workload: "behavior",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Transit:  economics.TransitSpec{Kind: "flat", USDPerGB: 1},
		Behavior: behavior.Spec{FreeRiderFrac: 0.3},
		Sim:      freeRider,
	})

	// clique-attack — collusion in the same seed-scarce world: the first
	// eight watchers bid 4× their true value for each other's requests and
	// refuse to upload to outsiders. The clique hoards uplink bandwidth its
	// members don't need (inflated bids win auctions true valuations would
	// lose) while outsiders fall back to remote, cross-ISP uploaders — true
	// welfare falls and the transit bill rises against the honest control.
	// Sweep the cartel with `-sweep "clique-size=0,4,8,16"`.
	clique := freeRider
	MustRegister(Spec{
		Name:     "clique-attack",
		Summary:  "8-peer colluding clique boosting bids 4x and starving outsiders",
		Workload: "behavior",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Transit:  economics.TransitSpec{Kind: "flat", USDPerGB: 1},
		Behavior: behavior.Spec{CliqueSize: 8},
		Sim:      clique,
	})

	// cdn-assist — the hybrid CDN/P2P workbench: an underseeded swarm (one
	// global seed per video, tight neighbor lists) leaning on per-ISP edge
	// servers and an origin, all bidding in the same auction with cost =
	// egress fee. The offload report rides along in every JSON export: %
	// bytes served P2P vs edge vs origin, edge cache hit rate, and the CDN
	// bill next to the flat transit bill — the welfare × transit × CDN-spend
	// frontier of ROADMAP item 3. Sweep `edge-capacity` to trace offload vs
	// edge provisioning, or set `cdn-only=1` for the no-P2P baseline the
	// dominance golden compares against.
	assist := smallSim()
	assist.StaticPeers = 60
	assist.Slots = 8
	assist.Catalog.Count = 6
	assist.NeighborCount = 8
	assist.SeedsPerVideo = 1
	assist.Placement = sim.SeedsGlobal
	assist.CDN = cdn.DefaultSpec()
	// Uniform egress fees make large ε-band tie classes (every request sees
	// the same edge/origin costs); a tighter increment keeps warm/cold and
	// sharded/monolithic tie-break drift inside the equality goldens.
	assist.Epsilon = 0.002
	MustRegister(Spec{
		Name:     "cdn-assist",
		Summary:  "underseeded swarm leaning on per-ISP edge servers and an origin",
		Workload: "cdn",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Transit:  economics.TransitSpec{Kind: "flat", USDPerGB: 1},
		Sim:      assist,
	})

	// flash-crowd-cdn — the flash-crowd premiere spike with the CDN tier
	// absorbing it: fresh arrivals have empty caches, so until P2P
	// replication warms up the edges (and, past their capacity, the origin)
	// carry the burst. Compare against plain flash-crowd to see what the
	// CDN bill buys in miss rate.
	flashCDN := smallSim()
	flashCDN.Scenario = sim.ScenarioDynamic
	flashCDN.Slots = 12
	flashCDN.ArrivalPerSec = 0.8
	flashCDN.Arrival = sim.ArrivalFlashCrowd
	flashCDN.FlashSlot = 4
	flashCDN.FlashSlots = 2
	flashCDN.FlashMultiplier = 6
	flashCDN.SeedsPerVideo = 1
	flashCDN.Placement = sim.SeedsGlobal
	flashCDN.CDN = cdn.DefaultSpec()
	flashCDN.Epsilon = 0.002 // same tie-class calibration as cdn-assist
	MustRegister(Spec{
		Name:     "flash-crowd-cdn",
		Summary:  "flash-crowd spike absorbed by the CDN tier until P2P warms up",
		Workload: "cdn",
		Kind:     KindSim,
		Solver:   SolverAuction,
		Transit:  economics.TransitSpec{Kind: "flat", USDPerGB: 1},
		Sim:      flashCDN,
	})

	// assignment — the bare solver on random transportation instances,
	// cross-checked against the exact optimum with its ε-CS certificate
	// (ported from examples/assignment).
	MustRegister(Spec{
		Name:     "assignment",
		Summary:  "auction vs exact optimum on random transportation instances",
		Workload: "solver",
		Kind:     KindTransport,
		Solver:   SolverAuction,
		Transport: TransportParams{
			TransportShape: TransportShape{
				Requests: 100, Sinks: 20, MaxDegree: 5,
				MinCapacity: 1, MaxCapacity: 4,
				MinWeight: -1, MaxWeight: 8,
			},
			Trials: 3, Epsilon: 0.01,
		},
	})

	// solver-parallel — the Jacobi auction with parallel bid computation on
	// larger instances (Bertsekas' original parallel-relaxation motivation).
	MustRegister(Spec{
		Name:          "solver-parallel",
		Summary:       "parallel Jacobi auction on larger solver instances",
		Workload:      "solver",
		Kind:          KindTransport,
		Solver:        SolverAuctionJacobi,
		SolverWorkers: 4,
		Transport: TransportParams{
			TransportShape: TransportShape{
				Requests: 300, Sinks: 60, MaxDegree: 6,
				MinCapacity: 1, MaxCapacity: 6,
				MinWeight: -1, MaxWeight: 8,
			},
			Trials: 2, Epsilon: 0.01,
		},
	})

	// livenet — the distributed auction protocol over real TCP sockets: two
	// uploaders (local and remote) sell bandwidth to three downloaders
	// (ported from examples/livenet).
	MustRegister(Spec{
		Name:     "livenet",
		Summary:  "distributed auction over real TCP sockets (2 uploaders, 3 downloaders)",
		Workload: "protocol",
		Kind:     KindLive,
		Solver:   SolverAuction,
		Live: LiveParams{
			UploaderCosts:       []float64{1, 4},
			UploaderCapacity:    2,
			Downloaders:         3,
			ChunksPerDownloader: 2,
			TopValue:            8,
			Epsilon:             0.01,
		},
	})
}
