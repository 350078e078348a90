package scenario

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/tracker"
)

// Grid sweeps one named parameter over a list of values; a Batch takes the
// cartesian product of its grids. Parameter keys are the ones ApplyParam
// understands.
type Grid struct {
	Param  string
	Values []float64
}

// intParams are the ApplyParam keys that count something: a fractional value
// would be truncated, so the run would not be the point it is labelled as.
var intParams = map[string]bool{
	"peers": true, "slots": true, "neighbors": true,
	"seeds-per-video": true, "videos": true, "window": true,
	"requests": true, "sinks": true,
	"shard-workers": true, "shard-max": true,
	"cross-cap": true, "clique-size": true,
	"edge-capacity": true, "edge-cache": true, "origin-capacity": true,
	"rejoin-after": true,
}

// ApplyParam mutates the spec by one named parameter — the vocabulary of
// batch sweeps and of p2psim's -set. Keys: peers, slots, neighbors, epsilon,
// arrival, early-leave, cost-scale, seeds-per-video, videos, window,
// requests, sinks, warmstart, sharding, shard-workers, shard-max, locality,
// cross-cap, transit-cost, free-rider-frac, shade-factor, clique-size,
// throttle-cap, edge-capacity, edge-cache, origin-capacity, cdn-only,
// crash-prob, rejoin-after. Integer keys reject fractional values.
func ApplyParam(s *Spec, key string, v float64) error {
	if intParams[key] && (v != math.Trunc(v) || math.IsInf(v, 0)) {
		return fmt.Errorf("scenario: %s=%v must be an integer", key, v)
	}
	switch key {
	case "free-rider-frac":
		// Fraction of non-seed peers that upload nothing after joining.
		if v < 0 || v > 1 {
			return fmt.Errorf("scenario: free-rider fraction %v outside [0,1]", v)
		}
		s.Behavior.FreeRiderFrac = v
	case "shade-factor":
		// Multiplier every bidder applies to its reported value; 0 or 1 is
		// truthful bidding.
		if v < 0 || v > 1 {
			return fmt.Errorf("scenario: shade factor %v outside [0,1]", v)
		}
		s.Behavior.ShadeFactor = v
	case "clique-size":
		// Number of colluding watchers (the first int(v) live non-seeds).
		if v < 0 {
			return fmt.Errorf("scenario: clique size %v must be >= 0", v)
		}
		s.Behavior.CliqueSize = int(v)
	case "throttle-cap":
		// ISP cross-traffic admission probability; the throttling ISP set
		// defaults to {0} when the spec names none.
		if v < 0 || v > 1 {
			return fmt.Errorf("scenario: throttle cap %v outside [0,1]", v)
		}
		if len(s.Behavior.Throttle.ISPs) == 0 {
			s.Behavior.Throttle.ISPs = []int{0}
		}
		s.Behavior.Throttle.Cap = v
	case "warmstart":
		return toggleVariant(s, SolverAuctionWarm, v != 0)
	case "locality":
		// ISP-biased neighbor selection with bias probability v; 0 restores
		// the uniform (ISP-blind) policy.
		if v < 0 || v > 1 {
			return fmt.Errorf("scenario: locality bias %v outside [0,1]", v)
		}
		if v == 0 {
			s.Sim.Locality = tracker.Policy{}
		} else {
			s.Sim.Locality = tracker.Policy{Kind: tracker.PolicyISPBias, BiasP: v}
		}
	case "cross-cap":
		// Hard cross-ISP neighbor cap of int(v); negative restores uniform.
		if v < 0 {
			s.Sim.Locality = tracker.Policy{}
		} else {
			s.Sim.Locality = tracker.Policy{Kind: tracker.PolicyCrossCap, MaxCross: int(v)}
		}
	case "transit-cost":
		// Flat $/GB transit rate (the peering model's base rate when the
		// spec declares peered pairs); 0 means free transit, the zero anchor
		// of a welfare-vs-transit sweep. A tier schedule prices by volume
		// band, not one rate — rejecting the combination beats silently
		// ignoring the parameter.
		if v < 0 {
			return fmt.Errorf("scenario: transit rate %v must be >= 0", v)
		}
		if s.Transit.Kind == "tiered" || len(s.Transit.Tiers) > 0 {
			return fmt.Errorf("scenario: transit-cost sets a flat $/GB rate, but this spec prices transit with a tier schedule; edit Transit.Tiers instead")
		}
		s.Transit.USDPerGB = v
		if s.Transit.Kind == "" {
			// Pin the kind so the explicit rate survives TransitSpec's
			// implicit-zero-spec defaulting.
			s.Transit.Kind = "flat"
		}
	case "sharding":
		return toggleVariant(s, SolverAuctionSharded, v != 0)
	case "shard-workers":
		s.Sharding.Workers = int(v)
	case "shard-max":
		s.Sharding.MaxShardPeers = int(v)
	case "peers":
		s.Sim.StaticPeers = int(v)
	case "slots":
		s.Sim.Slots = int(v)
	case "neighbors":
		s.Sim.NeighborCount = int(v)
	case "epsilon":
		s.Sim.Epsilon = v
		s.Transport.Epsilon = v
		s.Live.Epsilon = v
	case "arrival":
		s.Sim.ArrivalPerSec = v
	case "early-leave":
		s.Sim.EarlyLeaveProb = v
	case "cost-scale":
		s.Sim.CostScale = v
	case "seeds-per-video":
		s.Sim.SeedsPerVideo = int(v)
	case "videos":
		s.Sim.Catalog.Count = int(v)
	case "window":
		s.Sim.WindowChunks = int(v)
	case "requests":
		s.Transport.Requests = int(v)
	case "sinks":
		s.Transport.Sinks = int(v)
	case "edge-capacity":
		// Per-edge upload capacity in chunks per slot (the offload-vs-
		// provisioning axis); 0 drops the edges, leaving P2P → origin.
		if v < 0 {
			return fmt.Errorf("scenario: edge capacity %v must be >= 0", v)
		}
		s.Sim.CDN.EdgeChunksPerSlot = int(v)
	case "edge-cache":
		// Per-edge LRU cache size in chunks (the hit-rate axis).
		if v <= 0 {
			return fmt.Errorf("scenario: edge cache %v must be positive", v)
		}
		s.Sim.CDN.EdgeCacheChunks = int(v)
	case "origin-capacity":
		if v <= 0 {
			return fmt.Errorf("scenario: origin capacity %v must be positive", v)
		}
		s.Sim.CDN.OriginChunksPerSlot = int(v)
	case "cdn-only":
		// 1 suppresses every P2P candidate — the CDN-only baseline.
		s.Sim.CDN.Only = v != 0
	case "crash-prob":
		// Per-slot crash-stop probability for live non-seed watchers
		// (internal/fault); 0 keeps the run bit-identical to a fault-free one.
		if v < 0 || v > 1 {
			return fmt.Errorf("scenario: crash probability %v outside [0,1]", v)
		}
		s.Sim.Fault.CrashProb = v
	case "rejoin-after":
		// Slots until a crashed watcher respawns as a fresh arrival; 0 means
		// crashed peers never come back.
		if v < 0 {
			return fmt.Errorf("scenario: rejoin delay %v must be >= 0", v)
		}
		s.Sim.Fault.RejoinAfterSlots = int(v)
	default:
		return fmt.Errorf("scenario: unknown sweep parameter %q (want peers, slots, "+
			"neighbors, epsilon, arrival, early-leave, cost-scale, seeds-per-video, "+
			"videos, window, requests, sinks, warmstart, sharding, shard-workers, "+
			"shard-max, locality, cross-cap, transit-cost, free-rider-frac, "+
			"shade-factor, clique-size, throttle-cap, edge-capacity, edge-cache, "+
			"origin-capacity, cdn-only, crash-prob or rejoin-after)", key)
	}
	return nil
}

// toggleVariant maps the warmstart and sharding sweep keys onto the solver
// name: on turns SolverAuction into the variant, off turns the variant back
// into SolverAuction. Turning a variant on from any other solver is an error;
// turning it off leaves other solvers alone.
func toggleVariant(s *Spec, variant Solver, on bool) error {
	switch {
	case s.Solver == variant:
		if !on {
			s.Solver = SolverAuction
		}
	case !on:
	case s.Solver == SolverAuction:
		s.Solver = variant
	case s.Solver == SolverAuctionWarm || s.Solver == SolverAuctionSharded:
		return fmt.Errorf("scenario: cannot turn %q into %q: sharding already warm-starts per shard",
			s.Solver, variant)
	default:
		return fmt.Errorf("scenario: %q requires the %q solver, got %q", variant, SolverAuction, s.Solver)
	}
	return nil
}

// Seeds returns n consecutive seeds starting at base — the usual seed list
// for a batch.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// Batch fans one spec out over a seed list and a parameter grid on a worker
// pool, then aggregates per-run metrics into per-point summaries.
type Batch struct {
	Spec Spec
	// Seeds lists the seeds run at every grid point (default: {1}).
	Seeds []uint64
	// Workers sizes the pool (0 or 1 = sequential). Runs are independent
	// processes of their own Spec copy, so any parallelism is safe.
	Workers int
	// Grids are swept as a cartesian product (may be empty).
	Grids []Grid
}

// RunRecord is one (grid point, seed) execution.
type RunRecord struct {
	Point   map[string]float64 `json:",omitempty"`
	Seed    uint64
	Metrics map[string]float64 `json:",omitempty"`
	Err     string             `json:",omitempty"`
}

// AggStat summarizes one metric over a point's seeds.
type AggStat struct {
	Mean, P50, P95 float64
}

// PointSummary aggregates all seeds of one grid point.
type PointSummary struct {
	Point   map[string]float64 `json:",omitempty"`
	Runs    int
	Failed  int
	Metrics map[string]AggStat
}

// BatchResult is the batch's full output: the raw per-run records and the
// seed-aggregated per-point summaries.
type BatchResult struct {
	Scenario  string
	Workload  string
	Solver    string
	Seeds     []uint64
	Records   []RunRecord
	Summaries []PointSummary
}

// gridPoint is one assignment of the swept parameters.
type gridPoint map[string]float64

// expandGrids returns the cartesian product of the grids (one empty point if
// there are none).
func expandGrids(grids []Grid) ([]gridPoint, error) {
	points := []gridPoint{{}}
	seen := make(map[string]bool, len(grids))
	for _, g := range grids {
		if g.Param == "" || len(g.Values) == 0 {
			return nil, fmt.Errorf("scenario: grid over %q has no values", g.Param)
		}
		if seen[g.Param] {
			return nil, fmt.Errorf("scenario: parameter %q swept twice", g.Param)
		}
		seen[g.Param] = true
		next := make([]gridPoint, 0, len(points)*len(g.Values))
		for _, p := range points {
			for _, v := range g.Values {
				np := make(gridPoint, len(p)+1)
				for k, pv := range p {
					np[k] = pv
				}
				np[g.Param] = v
				next = append(next, np)
			}
		}
		points = next
	}
	return points, nil
}

// job is one unit of batch work; results land at their index, keeping output
// order deterministic regardless of worker interleaving.
type job struct {
	point gridPoint
	seed  uint64
}

// Run executes the batch. Individual run failures are recorded, not fatal;
// Run errors only on unrunnable configuration (bad spec, bad grid).
func (b Batch) Run() (*BatchResult, error) {
	if err := b.Spec.Validate(); err != nil {
		return nil, err
	}
	seeds := b.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	points, err := expandGrids(b.Grids)
	if err != nil {
		return nil, err
	}
	// Pre-validate every grid point so a typo'd parameter fails fast rather
	// than as N identical per-run errors.
	for _, p := range points {
		spec := b.Spec
		for k, v := range p {
			if err := ApplyParam(&spec, k, v); err != nil {
				return nil, err
			}
		}
	}

	jobs := make([]job, 0, len(points)*len(seeds))
	for _, p := range points {
		for _, s := range seeds {
			jobs = append(jobs, job{point: p, seed: s})
		}
	}
	records := make([]RunRecord, len(jobs))

	runOne := func(i int) {
		j := jobs[i]
		rec := RunRecord{Seed: j.seed}
		if len(j.point) > 0 {
			rec.Point = j.point
		}
		spec := b.Spec
		var applyErr error
		for k, v := range j.point {
			if err := ApplyParam(&spec, k, v); err != nil {
				applyErr = err
				break
			}
		}
		if applyErr != nil {
			rec.Err = applyErr.Error()
		} else if res, err := spec.Run(j.seed); err != nil {
			rec.Err = err.Error()
		} else {
			rec.Metrics = res.Metrics
		}
		records[i] = rec
	}

	workers := b.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			runOne(i)
		}
	} else {
		// Contiguous chunks per worker, the internal/core/parallel.go idiom:
		// indexed result slots make the parallel output identical to the
		// sequential one.
		var wg sync.WaitGroup
		chunk := (len(jobs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(jobs) {
				break
			}
			hi := lo + chunk
			if hi > len(jobs) {
				hi = len(jobs)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					runOne(i)
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	out := &BatchResult{
		Scenario: b.Spec.Name,
		Workload: b.Spec.Workload,
		Solver:   string(b.Spec.Solver),
		Seeds:    seeds,
		Records:  records,
	}
	for pi, p := range points {
		sum := PointSummary{Metrics: make(map[string]AggStat)}
		if len(p) > 0 {
			sum.Point = p
		}
		valuesByMetric := make(map[string][]float64)
		for si := range seeds {
			rec := records[pi*len(seeds)+si]
			sum.Runs++
			if rec.Err != "" {
				sum.Failed++
				continue
			}
			for k, v := range rec.Metrics {
				valuesByMetric[k] = append(valuesByMetric[k], v)
			}
		}
		for k, vals := range valuesByMetric {
			s := metrics.SummarizeValues(vals)
			sum.Metrics[k] = AggStat{Mean: s.Mean, P50: s.P50, P95: s.P95}
		}
		out.Summaries = append(out.Summaries, sum)
	}
	return out, nil
}

// MetricNames returns the sorted union of metric keys across the summaries.
func (r *BatchResult) MetricNames() []string {
	seen := make(map[string]bool)
	for _, s := range r.Summaries {
		for k := range s.Metrics {
			seen[k] = true
		}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ParamNames returns the sorted swept-parameter names.
func (r *BatchResult) ParamNames() []string {
	seen := make(map[string]bool)
	for _, s := range r.Summaries {
		for k := range s.Point {
			seen[k] = true
		}
	}
	names := make([]string, 0, len(seen))
	for k := range seen {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
