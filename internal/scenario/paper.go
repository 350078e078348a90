package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/sim"
)

// Scale selects a paper report's size. Figures were produced at ScaleFull
// (the paper's 500 peers / 25 slots); the presets start from ScaleSmall.
type Scale int

// Report sizes.
const (
	ScaleSmall Scale = iota + 1
	ScaleMedium
	ScaleFull
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ReproConfig returns the calibrated reproduction configuration: the paper's
// published parameters with three documented calibrations —
//
//  1. CostScale 0.3: the paper never fixes the latency-to-valuation exchange
//     rate; 0.3 puts typical inter-ISP costs (~1.5 valuation units) inside
//     the valuation range so urgent chunks can out-value them, the regime
//     the paper's Fig. 4 (non-zero auction inter-ISP share) exhibits.
//  2. SeedsGlobal: 2 seeds per video in total (rather than per ISP); the
//     literal per-ISP reading makes local seed supply ≈16× local demand,
//     which drives inter-ISP traffic to zero for every strategy and
//     contradicts Fig. 4.
//  3. LocalityRounds 1: the paper's Simple Locality description has no
//     retry protocol; one request round per bidding cycle.
//
// See docs/ARCHITECTURE.md §7 for the rationale and the paper-vs-measured
// record.
func ReproConfig() sim.Config {
	cfg := sim.PaperConfig()
	cfg.CostScale = 0.3
	cfg.Placement = sim.SeedsGlobal
	cfg.LocalityRounds = 1
	return cfg
}

// At returns ReproConfig scaled to the requested size.
func At(scale Scale) (sim.Config, error) {
	cfg := ReproConfig()
	switch scale {
	case ScaleFull:
		// The paper's dimensions.
	case ScaleMedium:
		cfg.StaticPeers = 200
		cfg.Slots = 15
		cfg.Catalog.Count = 50
	case ScaleSmall:
		cfg.StaticPeers = 60
		cfg.Slots = 8
		// 12 videos keeps ≈5 watchers per video — enough contention for the
		// baselines' coordination failures to show, as at full scale.
		cfg.Catalog.Count = 12
		cfg.Catalog.SizeMB = 8 // 1024 chunks ≈ 102 s videos
		cfg.NeighborCount = 15
	default:
		return cfg, fmt.Errorf("scenario: unknown scale %d", scale)
	}
	return cfg, nil
}

// TransportShape bounds a random transportation instance shaped like one
// slot's scheduling problem.
type TransportShape struct {
	// Requests and Sinks size each instance.
	Requests, Sinks int
	// MaxDegree bounds candidate sinks per request (uniform in [1, MaxDegree]).
	MaxDegree int
	// MinCapacity/MaxCapacity bound sink capacities.
	MinCapacity, MaxCapacity int
	// MinWeight/MaxWeight bound edge weights v − w (negatives model
	// not-worth-fetching chunks).
	MinWeight, MaxWeight float64
}

// RandomTransport draws one instance within the shape's bounds: every sink's
// capacity, then per request a degree, a sink permutation and one weight per
// edge. The draw order is fixed, so a seed reproduces its instances. The
// bounds must be valid (MaxDegree ≥ 1, 1 ≤ MinCapacity ≤ MaxCapacity).
func RandomTransport(rng *randx.Source, t TransportShape) *core.Problem {
	p := core.NewProblem()
	for s := 0; s < t.Sinks; s++ {
		if _, err := p.AddSink(t.MinCapacity + rng.Intn(t.MaxCapacity-t.MinCapacity+1)); err != nil {
			panic(err)
		}
	}
	for r := 0; r < t.Requests; r++ {
		req := p.AddRequest()
		degree := 1 + rng.Intn(t.MaxDegree)
		perm := rng.Perm(t.Sinks)
		for k := 0; k < degree && k < len(perm); k++ {
			if err := p.AddEdge(req, core.SinkID(perm[k]), rng.Range(t.MinWeight, t.MaxWeight)); err != nil {
				panic(err)
			}
		}
	}
	return p
}
