// Package cdn models the hybrid CDN tier: an origin server and per-ISP edge
// servers that join every scheduling slot as always-on uploaders, giving each
// chunk a three-tier fallback path P2P → edge → origin (the CDN-simulator
// architecture, SNIPPETS.md §1). The paper's primal-dual auction prices
// uploader bandwidth through the λ duals, so CDN nodes need no new mechanism:
// they are bidders whose candidate cost is the egress fee, and the welfare
// objective v − w charges CDN spend exactly where it charges network cost.
//
// The split of responsibilities:
//
//   - Spec (this file) is the configuration surface carried by sim.Config:
//     tier capacities, auction-visible egress costs, the edge cache size and
//     the USD pricing of each tier.
//   - LRU (lru.go) is the edge servers' chunk cache: hits serve from the
//     edge, misses fill from the origin over backhaul and evict the
//     least-recently-used chunk.
//   - Telemetry (telemetry.go) is the obs.Registry the sim engines feed with
//     cache hit/miss counters and per-tier served-bytes counters, bridged
//     into the daemon's /metrics exposition.
//
// Accounting lives in internal/economics (ComputeOffload): the per-tier
// chunk counters every run records become the offload report — % of bytes
// served P2P vs edge vs origin, and the CDN bill next to the ISP transit
// bill.
package cdn

import (
	"fmt"
	"math"

	"repro/internal/economics"
)

// Tier identifies which layer of the three-tier fallback path served a
// chunk. The zero value is the P2P tier, so plain peers need no marking.
type Tier int

const (
	// TierP2P is a regular peer upload (the paper's only tier).
	TierP2P Tier = iota
	// TierEdge is a per-ISP edge server serving from its LRU cache.
	TierEdge
	// TierOrigin is the origin server (has every chunk, highest egress fee).
	TierOrigin
)

// String names the tier for logs and reports.
func (t Tier) String() string {
	switch t {
	case TierP2P:
		return "p2p"
	case TierEdge:
		return "edge"
	case TierOrigin:
		return "origin"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Spec configures the CDN tier of a simulation. The zero value disables it
// and leaves every engine bit-identical to the pre-CDN pipeline.
type Spec struct {
	// Enabled switches the tier on: one origin server plus (if
	// EdgeChunksPerSlot > 0) one edge server per ISP join every slot as
	// always-on uploaders.
	Enabled bool
	// OriginChunksPerSlot is the origin server's upload capacity in chunks
	// per slot. The origin holds the full catalog.
	OriginChunksPerSlot int
	// EdgeChunksPerSlot is each edge server's upload capacity in chunks per
	// slot. 0 places no edges (a two-tier P2P → origin fallback).
	EdgeChunksPerSlot int
	// EdgeCacheChunks is each edge's LRU cache capacity in chunks. A served
	// chunk missing from the cache is fetched from the origin over backhaul
	// (priced by Pricing.BackhaulUSDPerGB) and inserted, evicting the
	// least-recently-used chunk.
	EdgeCacheChunks int
	// EdgeEgressCost is the auction-visible cost of an edge candidate, in
	// the same units as the P2P candidates' CostScale-scaled network cost —
	// the edge egress fee expressed in the welfare objective's currency.
	// Calibrate it between typical intra-ISP and inter-ISP scaled costs so
	// local peers beat the edge and the edge beats remote peers.
	//
	// Deliberately constant (cache-state-independent): candidate lists stay
	// fixed within a slot, so the incremental builder's carried lists, its
	// deltas and shard partitions remain sound; the cache decides the
	// backhaul *bill*, never the auction's view.
	EdgeEgressCost float64
	// OriginEgressCost is the auction-visible cost of the origin candidate;
	// calibrate it above the inter-ISP scaled cost ceiling so the origin is
	// the strict last resort.
	OriginEgressCost float64
	// Pricing converts the per-tier served volumes into the CDN bill
	// (economics.ComputeOffload).
	Pricing economics.CDNPricing
	// Only suppresses every P2P candidate, forcing all traffic through the
	// CDN — the CDN-only baseline the hybrid's welfare − cost dominance
	// golden compares against. Requires Enabled.
	Only bool
}

// Validate checks the spec. The zero (disabled) value is always valid; the
// remaining fields are only inspected when Enabled.
func (s Spec) Validate() error {
	if !s.Enabled {
		if s.Only {
			return fmt.Errorf("cdn: Only requires Enabled")
		}
		return nil
	}
	if s.OriginChunksPerSlot <= 0 {
		return fmt.Errorf("cdn: OriginChunksPerSlot must be positive, got %d", s.OriginChunksPerSlot)
	}
	if s.EdgeChunksPerSlot < 0 {
		return fmt.Errorf("cdn: EdgeChunksPerSlot must be >= 0, got %d", s.EdgeChunksPerSlot)
	}
	if s.EdgeChunksPerSlot > 0 && s.EdgeCacheChunks <= 0 {
		return fmt.Errorf("cdn: edges need EdgeCacheChunks > 0, got %d", s.EdgeCacheChunks)
	}
	if s.EdgeEgressCost < 0 || math.IsNaN(s.EdgeEgressCost) {
		return fmt.Errorf("cdn: EdgeEgressCost must be >= 0, got %v", s.EdgeEgressCost)
	}
	if s.OriginEgressCost < 0 || math.IsNaN(s.OriginEgressCost) {
		return fmt.Errorf("cdn: OriginEgressCost must be >= 0, got %v", s.OriginEgressCost)
	}
	if err := s.Pricing.Validate(); err != nil {
		return fmt.Errorf("cdn: %w", err)
	}
	return nil
}

// DefaultSpec returns a calibrated hybrid tier for the reproduction's
// evaluation worlds (CostScale 0.3 over the default cost model): the edge
// fee sits between typical scaled intra-ISP (~0.3) and inter-ISP (~1.5)
// costs, the origin fee above the inter-ISP ceiling (3.0), and the USD
// rates follow commodity CDN list pricing.
func DefaultSpec() Spec {
	return Spec{
		Enabled:             true,
		OriginChunksPerSlot: 800,
		EdgeChunksPerSlot:   400,
		EdgeCacheChunks:     512,
		EdgeEgressCost:      0.9,
		OriginEgressCost:    3.5,
		Pricing: economics.CDNPricing{
			EdgeUSDPerGB:     0.02,
			OriginUSDPerGB:   0.08,
			BackhaulUSDPerGB: 0.01,
		},
	}
}
