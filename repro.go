// Package repro is a from-scratch Go reproduction of "Socially-optimal
// ISP-aware P2P Content Distribution via a Primal-Dual Approach" (Zhao & Wu,
// IEEE ICDCS Workshops / HotPOST 2014).
//
// It provides, as a library:
//
//   - the primal-dual auction algorithm for the paper's social-welfare
//     maximization problem, both as a centralized solver (SolveAuction) and
//     as distributed bidder/auctioneer protocol state machines;
//   - an exact min-cost-flow reference solver (SolveExact) and verification
//     of feasibility, LP duality and ε-complementary slackness;
//   - the full P2P VoD evaluation testbed: ISP topologies with inter/intra
//     cost models, Zipf–Mandelbrot video catalogs, deadline valuations,
//     tracker, churn, and one slot-level simulator whose rounds any
//     scheduler solves, the message-level distributed auction included;
//   - the paper's Simple Locality baseline and a network-agnostic random
//     baseline;
//   - a declarative scenario registry with named workload presets and a
//     parallel batch runner (internal/scenario, driven by cmd/p2psim),
//     which also runs one report per figure of the paper (Figs. 2–6) plus
//     the engine validation and extensions (robustness, strategic
//     bidding, ISP matrix);
//   - an inter-ISP traffic-economics layer: every run records the ISP×ISP
//     traffic matrix, prices it under pluggable transit models
//     (flat/tiered/peering) into per-ISP settlements, and compares
//     policies on the welfare-vs-transit Pareto plane (internal/economics,
//     driven by `p2psim -isp-report`).
//
// This facade re-exports the stable entry points; the implementation lives
// under internal/. Start with RunScenario or RunAuction for simulations, or
// Experiment for paper figures — see examples/ for complete programs.
package repro

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/economics"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Simulation configuration and results (see internal/sim for field docs).
type (
	// Config holds every knob of the evaluation environment.
	Config = sim.Config
	// Results carries a run's per-slot series and aggregate counters.
	Results = sim.Results
	// Series is a named time series of metric samples.
	Series = metrics.Series
)

// Scenario and placement selectors.
const (
	// ScenarioStatic keeps a constant population (paper's static network).
	ScenarioStatic = sim.ScenarioStatic
	// ScenarioDynamic uses Poisson arrivals (paper Figs. 3 and 6).
	ScenarioDynamic = sim.ScenarioDynamic
	// SeedsPerISP places seeds in every ISP (the paper's literal reading).
	SeedsPerISP = sim.SeedsPerISP
	// SeedsGlobal places seeds per video in total (scarcity calibration).
	SeedsGlobal = sim.SeedsGlobal
)

// PaperConfig returns the paper's published parameters (§V).
func PaperConfig() Config { return sim.PaperConfig() }

// ReproConfig returns the calibrated reproduction configuration used for the
// figures (see docs/ARCHITECTURE.md §7 for the calibration rationale).
func ReproConfig() Config { return scenario.ReproConfig() }

// RunAuction simulates cfg under the paper's primal-dual auction scheduler.
func RunAuction(cfg Config) (*Results, error) {
	return sim.Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
}

// RunAuctionWarm simulates cfg under the warm-started incremental auction:
// prices and partial assignments carry across the run's slots
// (sched.WarmAuction over core.Solver), with the same per-slot welfare
// guarantee as RunAuction at a fraction of the solve cost under churn (see
// docs/PERFORMANCE.md).
func RunAuctionWarm(cfg Config) (*Results, error) {
	return sim.Run(cfg, &sched.WarmAuction{Epsilon: cfg.Epsilon})
}

// RunLocality simulates cfg under the Simple Locality baseline.
func RunLocality(cfg Config) (*Results, error) {
	return sim.Run(cfg, &baseline.Locality{Rounds: cfg.LocalityRounds})
}

// RunRandom simulates cfg under the network-agnostic random baseline.
func RunRandom(cfg Config) (*Results, error) {
	return sim.Run(cfg, &baseline.Random{Seed: cfg.Seed, Rounds: cfg.LocalityRounds})
}

// RunDistributed simulates cfg under the message-level auction: the
// distributed interleaving auctions actually exchange bids, rejections,
// evictions and price updates over a latency-accurate network (sim.DES, the
// auction-des solver). Results include the representative peer's λ_u price
// trace (paper Fig. 2).
func RunDistributed(cfg Config) (*Results, error) {
	return sim.Run(cfg, &sim.DES{})
}

// Inter-ISP traffic economics (see internal/economics for field docs).
type (
	// TrafficMatrix is the ISP×ISP chunk-transfer ledger a run records
	// (Results.TrafficMatrix, Results.SlotTraffic).
	TrafficMatrix = economics.Matrix
	// TransitModel prices cross-ISP volume (economics.Flat, economics.Tiered,
	// economics.Peering).
	TransitModel = economics.TransitModel
	// Settlement is a run's per-ISP transit bill.
	Settlement = economics.Settlement
)

// SettleTraffic prices a run's traffic matrix under a transit model;
// chunkBytes is Config.ChunkBytes().
func SettleTraffic(m *TrafficMatrix, chunkBytes float64, model TransitModel) (*Settlement, error) {
	return economics.Settle(m, chunkBytes, model)
}

// Paper reports (see internal/scenario/report.go).
type (
	// Report is one paper report's output: series, summary table and notes.
	Report = scenario.Report
	// Scale selects report size (ScaleSmall/ScaleMedium/ScaleFull).
	Scale = scenario.Scale
)

// Report sizes.
const (
	ScaleSmall  = scenario.ScaleSmall
	ScaleMedium = scenario.ScaleMedium
	ScaleFull   = scenario.ScaleFull
)

// Experiment runs the paper report with the given id ("fig2".."fig6",
// "engines", "robust-loss", "strategic", "isp-matrix") at the given scale;
// ExperimentIDs lists them.
func Experiment(id string, scale Scale) (*Report, error) {
	runner, ok := scenario.Reports()[id]
	if !ok {
		return nil, fmt.Errorf("repro: unknown experiment %q", id)
	}
	return runner(scale)
}

// ExperimentIDs lists the available report ids.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(scenario.Reports()))
	for id := range scenario.Reports() {
		ids = append(ids, id)
	}
	return ids
}

// Scenario engine (see internal/scenario and the README's catalog).
type (
	// Scenario declares one registered workload: topology, traffic shape,
	// solver and scale.
	Scenario = scenario.Spec
	// ScenarioResult is one scenario run reduced to named scalar metrics.
	ScenarioResult = scenario.Result
	// ScenarioBatch fans a scenario over seeds × parameter grids on a
	// worker pool and aggregates mean/p50/p95 summaries.
	ScenarioBatch = scenario.Batch
	// Solver names a scenario scheduling strategy.
	Solver = scenario.Solver
)

// Scenario solvers (Scenario.WithSolver derives a re-solved variant). The
// warm-started and sharded auctions are solvers of their own.
const (
	SolverAuction        = scenario.SolverAuction
	SolverAuctionWarm    = scenario.SolverAuctionWarm
	SolverAuctionSharded = scenario.SolverAuctionSharded
	SolverAuctionJacobi  = scenario.SolverAuctionJacobi
	SolverAuctionDES     = scenario.SolverAuctionDES
	SolverExact          = scenario.SolverExact
	SolverLocality       = scenario.SolverLocality
	SolverRandom         = scenario.SolverRandom
)

// FprintScenario renders one scenario run as an aligned metric table.
func FprintScenario(w io.Writer, r *ScenarioResult) error { return scenario.Fprint(w, r) }

// Scenarios lists the registered scenario names, sorted.
func Scenarios() []string { return scenario.Names() }

// GetScenario returns the named scenario spec.
func GetScenario(name string) (Scenario, bool) { return scenario.Get(name) }

// RunScenario executes a registered scenario once under the given seed.
func RunScenario(name string, seed uint64) (*ScenarioResult, error) {
	spec, ok := scenario.Get(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown scenario %q (have: %v)", name, scenario.Names())
	}
	return spec.Run(seed)
}

// Assignment-problem core (the paper's algorithmic contribution), exposed for
// direct use on arbitrary transportation instances.
type (
	// Problem is a transportation instance: unit-demand requests, capacitated
	// sinks, weighted edges.
	Problem = core.Problem
	// Assignment maps each request to a sink (or Unassigned).
	Assignment = core.Assignment
	// AuctionOptions configures the primal-dual auction solver.
	AuctionOptions = core.AuctionOptions
	// AuctionResult carries the solution, prices and solver diagnostics.
	AuctionResult = core.AuctionResult
	// IncrementalSolver retains prices and partial assignments between
	// Solves and accepts ProblemDeltas — the warm-start layer.
	IncrementalSolver = core.Solver
	// ProblemDelta is one slot-to-slot change set for an IncrementalSolver.
	ProblemDelta = core.ProblemDelta
	// AppliedDelta reports the ids an IncrementalSolver minted for a delta.
	AppliedDelta = core.AppliedDelta
	// Edge is one admissible (request, sink) pair with its welfare weight.
	Edge = core.Edge
	// RequestID identifies a request; SinkID identifies a sink (uploader).
	RequestID = core.RequestID
	// SinkID identifies a sink in a Problem or IncrementalSolver.
	SinkID = core.SinkID
	// SinkCapacity is a delta capacity change; RequestEdges a delta edge
	// rewrite; ValueShift a delta uniform re-valuation.
	SinkCapacity = core.SinkCapacity
	// RequestEdges replaces one request's edge set in a ProblemDelta.
	RequestEdges = core.RequestEdges
	// ValueShift shifts all of one request's weights in a ProblemDelta.
	ValueShift = core.ValueShift
)

// Unassigned marks a request that receives no bandwidth.
const Unassigned = core.Unassigned

// NewProblem returns an empty transportation instance.
func NewProblem() *Problem { return core.NewProblem() }

// NewIncrementalSolver returns an empty warm-starting solver; feed it
// ProblemDeltas and call Solve after each batch of changes.
func NewIncrementalSolver(opts AuctionOptions) (*IncrementalSolver, error) {
	return core.NewSolver(opts)
}

// SolveAuction runs the primal-dual auction solver.
func SolveAuction(p *Problem, opts AuctionOptions) (*AuctionResult, error) {
	return core.SolveAuction(p, opts)
}

// SolveExact computes the optimal assignment by min-cost flow (ground truth).
func SolveExact(p *Problem) (*Assignment, error) { return core.SolveExact(p) }

// VerifyEpsilonCS checks ε-complementary slackness of a solution certificate.
func VerifyEpsilonCS(p *Problem, a *Assignment, prices []float64, eps, tol float64) error {
	return core.VerifyEpsilonCS(p, a, prices, eps, tol)
}

// DualObjective evaluates the dual objective (5) at the given prices.
func DualObjective(p *Problem, prices []float64) float64 {
	return core.DualObjective(p, prices)
}
