package economics

// offload.go: the hybrid CDN/P2P accounting plane. A CDN-assisted run serves
// every chunk from one of three tiers — peer-to-peer, a per-ISP edge server,
// or the origin — and the operator's question is the offload ratio: what
// share of delivered bytes the P2P swarm kept off the CDN, and what the
// remainder cost in CDN egress and edge-fill backhaul. ComputeOffload turns
// the simulator's per-tier chunk counters into that report, priced next to
// (not inside) the ISP transit settlement: CDN traffic bypasses the ISP×ISP
// matrix by construction, so the two bills never double-count a byte.

import (
	"fmt"
	"io"
)

// CDNPricing is the per-GB USD rate card of the CDN tiers.
type CDNPricing struct {
	// EdgeUSDPerGB prices edge-served egress.
	EdgeUSDPerGB float64
	// OriginUSDPerGB prices origin-served egress (direct to peers).
	OriginUSDPerGB float64
	// BackhaulUSDPerGB prices origin→edge cache-fill transfers.
	BackhaulUSDPerGB float64
}

// Validate rejects negative rates.
func (p CDNPricing) Validate() error {
	if p.EdgeUSDPerGB < 0 || p.OriginUSDPerGB < 0 || p.BackhaulUSDPerGB < 0 {
		return fmt.Errorf("economics: CDN pricing rates must be >= 0, got %+v", p)
	}
	return nil
}

// TierCounts are one run's per-tier delivery counters (sim.Results carries
// them; the fast and rebuild engines record identically).
type TierCounts struct {
	// P2PChunks/EdgeChunks/OriginChunks partition the delivered chunks by
	// serving tier.
	P2PChunks, EdgeChunks, OriginChunks int64
	// BackhaulChunks counts origin→edge cache fills (one per edge miss).
	BackhaulChunks int64
	// EdgeHits/EdgeMisses partition EdgeChunks by cache outcome.
	EdgeHits, EdgeMisses int64
}

// Served returns the total delivered chunks across tiers.
func (c TierCounts) Served() int64 {
	return c.P2PChunks + c.EdgeChunks + c.OriginChunks
}

// Offload is the run-level CDN report: per-tier volumes and shares, the
// cache economics, and the CDN bill.
type Offload struct {
	// ChunkBytes is the byte size of one chunk transfer.
	ChunkBytes float64
	// P2PGB/EdgeGB/OriginGB are the delivered volumes per tier; BackhaulGB
	// is the origin→edge cache-fill volume (not delivered to peers).
	P2PGB, EdgeGB, OriginGB, BackhaulGB float64
	// P2PShare/EdgeShare/OriginShare partition delivered bytes (sum to 1
	// when anything was served).
	P2PShare, EdgeShare, OriginShare float64
	// OffloadRatio is the P2P share of delivered bytes — the fraction the
	// swarm kept off the CDN. 1 means the CDN never served a byte.
	OffloadRatio float64
	// EdgeHitRate is hits over edge-served chunks (0 when edges idle).
	EdgeHitRate float64
	// EdgeUSD/OriginUSD/BackhaulUSD price the volumes; CDNUSD is their sum —
	// the bill the operator reads next to Settlement.TransitUSD.
	EdgeUSD, OriginUSD, BackhaulUSD float64
	CDNUSD                          float64
}

// ComputeOffload prices one run's tier counters under the rate card.
func ComputeOffload(c TierCounts, chunkBytes float64, pricing CDNPricing) (*Offload, error) {
	if chunkBytes <= 0 {
		return nil, fmt.Errorf("economics: chunk size must be positive, got %v bytes", chunkBytes)
	}
	if err := pricing.Validate(); err != nil {
		return nil, err
	}
	if c.P2PChunks < 0 || c.EdgeChunks < 0 || c.OriginChunks < 0 || c.BackhaulChunks < 0 ||
		c.EdgeHits < 0 || c.EdgeMisses < 0 {
		return nil, fmt.Errorf("economics: negative tier counters %+v", c)
	}
	if c.EdgeHits+c.EdgeMisses != c.EdgeChunks {
		return nil, fmt.Errorf("economics: edge hits %d + misses %d != edge served %d",
			c.EdgeHits, c.EdgeMisses, c.EdgeChunks)
	}
	gb := func(chunks int64) float64 { return float64(chunks) * chunkBytes / bytesPerGB }
	o := &Offload{
		ChunkBytes: chunkBytes,
		P2PGB:      gb(c.P2PChunks),
		EdgeGB:     gb(c.EdgeChunks),
		OriginGB:   gb(c.OriginChunks),
		BackhaulGB: gb(c.BackhaulChunks),
	}
	if served := c.Served(); served > 0 {
		o.P2PShare = float64(c.P2PChunks) / float64(served)
		o.EdgeShare = float64(c.EdgeChunks) / float64(served)
		o.OriginShare = float64(c.OriginChunks) / float64(served)
	}
	o.OffloadRatio = o.P2PShare
	if c.EdgeChunks > 0 {
		o.EdgeHitRate = float64(c.EdgeHits) / float64(c.EdgeChunks)
	}
	o.EdgeUSD = o.EdgeGB * pricing.EdgeUSDPerGB
	o.OriginUSD = o.OriginGB * pricing.OriginUSDPerGB
	o.BackhaulUSD = o.BackhaulGB * pricing.BackhaulUSDPerGB
	o.CDNUSD = o.EdgeUSD + o.OriginUSD + o.BackhaulUSD
	return o, nil
}

// Fprint renders the offload report as the operator's tier table.
func (o *Offload) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "CDN offload report (chunk %.0f B, offload ratio %.4f, edge hit rate %.4f):\n",
		o.ChunkBytes, o.OffloadRatio, o.EdgeHitRate); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-9s  %12s  %8s  %12s\n", "tier", "served GB", "share", "bill USD"); err != nil {
		return err
	}
	rows := []struct {
		tier      string
		gb, share float64
		usd       float64
		hasBill   bool
	}{
		{"p2p", o.P2PGB, o.P2PShare, 0, false},
		{"edge", o.EdgeGB, o.EdgeShare, o.EdgeUSD, true},
		{"origin", o.OriginGB, o.OriginShare, o.OriginUSD, true},
	}
	for _, r := range rows {
		bill := "—"
		if r.hasBill {
			bill = fmt.Sprintf("%12.4f", r.usd)
		}
		if _, err := fmt.Fprintf(w, "  %-9s  %12.4f  %8.4f  %12s\n", r.tier, r.gb, r.share, bill); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-9s  %12.4f  %8s  %12.4f\n", "backhaul", o.BackhaulGB, "", o.BackhaulUSD); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  %-9s  %12s  %8s  %12.4f\n", "total", "", "", o.CDNUSD)
	return err
}
