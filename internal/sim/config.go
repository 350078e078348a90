// Package sim is the evaluation testbed: a slot-based P2P VoD streaming
// simulator reproducing the paper's emulation environment (§V) — M ISPs,
// Zipf–Mandelbrot video popularity, Poisson peer arrivals (flat, flash-crowd
// or diurnal, per ArrivalPattern), seed peers, prefetch windows with
// deadline-based valuations, per-uplink serialized chunk transfers, and
// deadline-miss accounting.
//
// Run steps the world slot by slot and hands each bidding round's instance
// to a pluggable sched.Scheduler: the centralized auction (Theorem 1 makes it
// equivalent to the distributed auctions), Simple Locality, random — or DES,
// which plays the distributed auction protocol message by message over the
// netsim network, with latencies derived from the ISP cost model. DES
// records the price-convergence trace (Fig. 2) and checks the equivalence
// the centralized solvers assume.
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/behavior"
	"repro/internal/cdn"
	"repro/internal/fault"
	"repro/internal/isp"
	"repro/internal/tracker"
	"repro/internal/valuation"
	"repro/internal/video"
)

// ScenarioKind selects the network composition over time.
type ScenarioKind int

const (
	// ScenarioStatic keeps a fixed population: peers that finish a video are
	// immediately replaced by a fresh peer, holding the online count
	// constant (the paper's "static network with 500 peers").
	ScenarioStatic ScenarioKind = iota + 1
	// ScenarioDynamic starts empty and lets peers arrive as a Poisson
	// process, staying until they finish watching (paper Fig. 3) or leaving
	// early (Fig. 6).
	ScenarioDynamic
)

// ArrivalPattern shapes the Poisson arrival rate over the run for
// ScenarioDynamic. The zero value (ArrivalConstant) reproduces the paper's
// flat rate; the other patterns open workloads the paper does not evaluate
// but that the locality literature sweeps (flash crowds, daily cycles).
type ArrivalPattern int

const (
	// ArrivalConstant keeps the rate at ArrivalPerSec for the whole run
	// (the paper's workload; zero value for backward compatibility).
	ArrivalConstant ArrivalPattern = iota
	// ArrivalFlashCrowd multiplies the rate by FlashMultiplier for
	// FlashSlots slots starting at FlashSlot — a premiere or breaking-news
	// spike hitting every ISP at once.
	ArrivalFlashCrowd
	// ArrivalDiurnal modulates the rate with a raised-cosine day/night
	// cycle of period DiurnalPeriodSlots: the rate starts at
	// DiurnalMinFactor×ArrivalPerSec, peaks at ArrivalPerSec half a period
	// in, and returns to the trough.
	ArrivalDiurnal
)

// SeedPlacement selects how seed peers are distributed.
type SeedPlacement int

const (
	// SeedsPerISP puts SeedsPerVideo seeds of every video in every ISP — the
	// literal reading of the paper ("In each ISP, for each video, there are
	// 2 seed peers").
	SeedsPerISP SeedPlacement = iota + 1
	// SeedsGlobal places SeedsPerVideo seeds per video in total, assigned to
	// ISPs round-robin — a scarcity calibration that reproduces the paper's
	// traffic shapes when local seed supply would otherwise trivialize the
	// workload (see docs/ARCHITECTURE.md §7).
	SeedsGlobal
)

// Config holds every knob of the evaluation environment. Zero values are
// invalid; start from PaperConfig.
type Config struct {
	// Seed drives all randomness; same seed ⇒ identical run.
	Seed uint64
	// NumISPs is M (paper: 5).
	NumISPs int
	// SlotSeconds is the bidding-cycle length (paper: 10).
	SlotSeconds float64
	// Slots is the horizon in slots (paper figures: 25 ⇒ 250 s).
	Slots int
	// Catalog describes the videos (paper: 100 × 20 MB / 640 Kbps / 8 KB).
	Catalog video.Params
	// Valuation is the deadline-based chunk valuation (paper: 2/ln(1.2+d)).
	Valuation valuation.Deadline
	// Cost is the inter/intra ISP network-cost model.
	Cost isp.CostModel
	// CostScale converts network-cost (latency) units into valuation units
	// when computing welfare weights v − CostScale·w. The paper subtracts w
	// from v directly without justifying the exchange rate; 1 is the literal
	// reading, while the reproduction config calibrates it so that urgent
	// chunks can out-value inter-ISP costs, the regime the paper's figures
	// exhibit (see docs/ARCHITECTURE.md §7).
	CostScale float64
	// NeighborCount caps the tracker's neighbor list (paper: 30).
	NeighborCount int
	// Locality selects the tracker's neighbor-selection locality policy
	// (tracker.PolicyUniform — the paper's position-proximity list — by
	// default; ISP-biased and cross-ISP-capped variants reproduce the
	// locality literature's baselines; see internal/tracker/policy.go).
	Locality tracker.Policy
	// WindowChunks is the prefetch window (paper: 100 chunks = 10 s).
	WindowChunks int
	// UploadMinX/UploadMaxX bound peer upload capacity as a multiple of the
	// streaming rate (paper: uniform [1, 4]).
	UploadMinX, UploadMaxX float64
	// SeedUploadX is seed upload capacity as a multiple of the streaming
	// rate (paper: 8).
	SeedUploadX float64
	// SeedsPerVideo is the number of seeds per video (per ISP or in total,
	// according to Placement; paper: 2 per ISP).
	SeedsPerVideo int
	// Placement selects seed distribution (paper reading: SeedsPerISP).
	Placement SeedPlacement
	// Scenario selects static population vs dynamic arrivals.
	Scenario ScenarioKind
	// StaticPeers is the population for ScenarioStatic (paper: 500).
	StaticPeers int
	// ArrivalPerSec is the Poisson arrival rate for ScenarioDynamic
	// (paper: 1 peer/s).
	ArrivalPerSec float64
	// Arrival shapes the arrival rate over time for ScenarioDynamic
	// (default ArrivalConstant, the paper's flat rate).
	Arrival ArrivalPattern
	// FlashSlot is the first slot of the ArrivalFlashCrowd burst.
	FlashSlot int
	// FlashSlots is the burst duration in slots (ArrivalFlashCrowd).
	FlashSlots int
	// FlashMultiplier scales ArrivalPerSec during the burst
	// (ArrivalFlashCrowd; must be > 0).
	FlashMultiplier float64
	// DiurnalPeriodSlots is the day length in slots (ArrivalDiurnal).
	DiurnalPeriodSlots int
	// DiurnalMinFactor is the trough-to-peak rate ratio in [0, 1]
	// (ArrivalDiurnal).
	DiurnalMinFactor float64
	// EarlyLeaveProb is the probability a joining peer departs before
	// finishing (paper Fig. 6: 0.6; others: 0).
	EarlyLeaveProb float64
	// BidRoundsPerSlot discretizes the paper's continuous in-slot bidding:
	// each slot runs this many scheduling rounds, re-valuing still-missing
	// chunks at their current (tighter) deadlines. 1 reduces to a single
	// slot-start snapshot, which systematically overstates misses for any
	// deferral-capable strategy (see docs/ARCHITECTURE.md §7). Paper-faithful default: 4.
	BidRoundsPerSlot int
	// Epsilon is the auction bid increment used by auction strategies.
	Epsilon float64
	// LocalityRounds caps the Simple Locality retry rounds per scheduling
	// round.
	LocalityRounds int
	// CostLatencyUnit maps one network-cost unit to simulated message
	// latency under DES (default 100 ms), calibrating Fig. 2's within-slot
	// convergence timeline.
	CostLatencyUnit time.Duration
	// Behavior selects the strategic-peer/ISP misbehavior axis: free-riders,
	// bid shaders, colluding cliques, tit-for-tat choking and ISP
	// cross-traffic throttles (internal/behavior). The zero value is the
	// honest baseline and leaves runs bit-identical to the pre-behavior
	// pipeline (pinned by the no-op regression goldens).
	Behavior behavior.Spec
	// CDN enables the hybrid CDN tier (internal/cdn): an origin server plus
	// one edge server per ISP join every slot as always-on uploaders whose
	// candidate cost is their egress fee, giving each chunk the three-tier
	// fallback path P2P → edge → origin. CDN-served chunks bypass the
	// ISP×ISP traffic matrix and accumulate in the per-tier counters behind
	// the offload report (economics.ComputeOffload). The zero value leaves
	// runs bit-identical to the pre-CDN pipeline. Under DES a server
	// broadcasts λ_u to the watchers whose requests list it that round.
	CDN cdn.Spec
	// Fault enables the deterministic fault-injection layer (internal/fault):
	// per-slot crash-stop draws over live watchers (with optional rejoin as
	// fresh arrivals) riding a dedicated derived random stream, and, under
	// DES, per-message loss at DropProb. The zero value leaves runs
	// bit-identical to the pre-fault pipeline (pinned by the no-op
	// regression golden).
	Fault fault.Spec
}

// PaperConfig returns the paper's published parameters (§V).
func PaperConfig() Config {
	return Config{
		Seed:             1,
		NumISPs:          5,
		SlotSeconds:      10,
		Slots:            25,
		Catalog:          video.PaperParams(),
		Valuation:        valuation.Default(),
		Cost:             isp.DefaultCostModel(),
		CostScale:        1,
		NeighborCount:    30,
		WindowChunks:     100,
		UploadMinX:       1,
		UploadMaxX:       4,
		SeedUploadX:      8,
		SeedsPerVideo:    2,
		Placement:        SeedsPerISP,
		Scenario:         ScenarioStatic,
		StaticPeers:      500,
		ArrivalPerSec:    1,
		EarlyLeaveProb:   0,
		BidRoundsPerSlot: 4,
		Epsilon:          0.01,
		LocalityRounds:   3,
		CostLatencyUnit:  100 * time.Millisecond,
	}
}

// Validate checks coherence of the configuration.
func (c Config) Validate() error {
	if c.NumISPs <= 0 {
		return fmt.Errorf("sim: NumISPs must be positive, got %d", c.NumISPs)
	}
	if c.SlotSeconds <= 0 || math.IsNaN(c.SlotSeconds) {
		return fmt.Errorf("sim: SlotSeconds must be positive, got %v", c.SlotSeconds)
	}
	if c.Slots <= 0 {
		return fmt.Errorf("sim: Slots must be positive, got %d", c.Slots)
	}
	if err := c.Valuation.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Cost.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.CostScale <= 0 || math.IsNaN(c.CostScale) {
		return fmt.Errorf("sim: CostScale must be positive, got %v", c.CostScale)
	}
	if c.NeighborCount <= 0 {
		return fmt.Errorf("sim: NeighborCount must be positive, got %d", c.NeighborCount)
	}
	if err := c.Locality.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.WindowChunks <= 0 {
		return fmt.Errorf("sim: WindowChunks must be positive, got %d", c.WindowChunks)
	}
	if c.UploadMinX <= 0 || c.UploadMaxX < c.UploadMinX {
		return fmt.Errorf("sim: upload range [%v,%v] invalid", c.UploadMinX, c.UploadMaxX)
	}
	if c.SeedUploadX < 0 {
		return fmt.Errorf("sim: SeedUploadX must be >= 0, got %v", c.SeedUploadX)
	}
	if c.SeedsPerVideo < 0 {
		return fmt.Errorf("sim: SeedsPerVideo must be >= 0, got %d", c.SeedsPerVideo)
	}
	if c.Placement != SeedsPerISP && c.Placement != SeedsGlobal {
		return fmt.Errorf("sim: unknown seed placement %d", c.Placement)
	}
	switch c.Scenario {
	case ScenarioStatic:
		if c.StaticPeers <= 0 {
			return fmt.Errorf("sim: StaticPeers must be positive, got %d", c.StaticPeers)
		}
	case ScenarioDynamic:
		if c.ArrivalPerSec < 0 {
			return fmt.Errorf("sim: ArrivalPerSec must be >= 0, got %v", c.ArrivalPerSec)
		}
	default:
		return fmt.Errorf("sim: unknown scenario %d", c.Scenario)
	}
	switch c.Arrival {
	case ArrivalConstant:
	case ArrivalFlashCrowd:
		if c.FlashSlot < 0 || c.FlashSlots <= 0 {
			return fmt.Errorf("sim: flash burst [%d, %d slots) invalid", c.FlashSlot, c.FlashSlots)
		}
		if c.FlashMultiplier <= 0 || math.IsNaN(c.FlashMultiplier) {
			return fmt.Errorf("sim: FlashMultiplier must be positive, got %v", c.FlashMultiplier)
		}
	case ArrivalDiurnal:
		if c.DiurnalPeriodSlots <= 0 {
			return fmt.Errorf("sim: DiurnalPeriodSlots must be positive, got %d", c.DiurnalPeriodSlots)
		}
		if c.DiurnalMinFactor < 0 || c.DiurnalMinFactor > 1 || math.IsNaN(c.DiurnalMinFactor) {
			return fmt.Errorf("sim: DiurnalMinFactor %v outside [0,1]", c.DiurnalMinFactor)
		}
	default:
		return fmt.Errorf("sim: unknown arrival pattern %d", c.Arrival)
	}
	if c.EarlyLeaveProb < 0 || c.EarlyLeaveProb > 1 {
		return fmt.Errorf("sim: EarlyLeaveProb %v outside [0,1]", c.EarlyLeaveProb)
	}
	if c.BidRoundsPerSlot <= 0 {
		return fmt.Errorf("sim: BidRoundsPerSlot must be positive, got %d", c.BidRoundsPerSlot)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("sim: Epsilon must be >= 0, got %v", c.Epsilon)
	}
	if c.CostLatencyUnit < 0 {
		return fmt.Errorf("sim: CostLatencyUnit must be >= 0, got %v", c.CostLatencyUnit)
	}
	if err := c.Behavior.Validate(c.NumISPs); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.CDN.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// ArrivalRate returns the effective Poisson arrival rate (peers per second)
// at the given slot, after applying the configured ArrivalPattern to the base
// rate ArrivalPerSec. ScenarioStatic ignores it.
func (c Config) ArrivalRate(slot int) float64 {
	switch c.Arrival {
	case ArrivalFlashCrowd:
		if slot >= c.FlashSlot && slot < c.FlashSlot+c.FlashSlots {
			return c.ArrivalPerSec * c.FlashMultiplier
		}
		return c.ArrivalPerSec
	case ArrivalDiurnal:
		phase := 2 * math.Pi * float64(slot) / float64(c.DiurnalPeriodSlots)
		factor := c.DiurnalMinFactor + (1-c.DiurnalMinFactor)*0.5*(1-math.Cos(phase))
		return c.ArrivalPerSec * factor
	default:
		return c.ArrivalPerSec
	}
}

// chunksPerSlot returns how many chunks playback consumes per slot.
func (c Config) chunksPerSlot(cat *video.Catalog) int {
	return int(math.Round(cat.ChunksPerSecond() * c.SlotSeconds))
}

// ChunkBytes returns the size of one chunk transfer in bytes — the unit the
// traffic-economics layer (internal/economics) converts chunk counts to
// billable volume with.
func (c Config) ChunkBytes() float64 {
	return c.Catalog.ChunkSizeKB * 1024
}
