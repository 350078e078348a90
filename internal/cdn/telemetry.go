package cdn

import "repro/internal/obs"

// Telemetry is the CDN tier's metric registry: cache hit/miss counters and
// per-tier served-bytes counters, fed once per slot by the sim engines
// (sim.recordSlot) and written after the scheduler daemon's own registry in
// its /metrics exposition (internal/service). Counters are
// process-wide — they aggregate across every CDN-enabled run in the process,
// which is exactly what a scrape wants; per-run accounting lives in
// sim.Results and economics.ComputeOffload.
var Telemetry = obs.NewRegistry()

var (
	mEdgeHits = Telemetry.Counter("cdn_edge_cache_hits_total",
		"chunks served straight from an edge server's LRU cache")
	mEdgeMisses = Telemetry.Counter("cdn_edge_cache_misses_total",
		"edge-served chunks that first had to be filled from the origin")
	mP2PBytes = Telemetry.Counter("cdn_p2p_served_bytes_total",
		"bytes delivered peer-to-peer (the offloaded tier)")
	mEdgeBytes = Telemetry.Counter("cdn_edge_served_bytes_total",
		"bytes delivered by edge servers")
	mOriginBytes = Telemetry.Counter("cdn_origin_served_bytes_total",
		"bytes delivered by the origin server")
	mBackhaulBytes = Telemetry.Counter("cdn_backhaul_bytes_total",
		"bytes pulled origin to edge to fill cache misses")
)

// RecordSlot publishes one slot's tier accounting to the process-wide
// counters. chunkBytes converts chunk counts to byte volumes; negative
// counts never occur (callers pass slot counters).
func RecordSlot(p2pChunks, edgeChunks, originChunks, backhaulChunks, edgeHits, edgeMisses int64, chunkBytes float64) {
	mEdgeHits.Add(uint64(edgeHits))
	mEdgeMisses.Add(uint64(edgeMisses))
	mP2PBytes.Add(uint64(float64(p2pChunks) * chunkBytes))
	mEdgeBytes.Add(uint64(float64(edgeChunks) * chunkBytes))
	mOriginBytes.Add(uint64(float64(originChunks) * chunkBytes))
	mBackhaulBytes.Add(uint64(float64(backhaulChunks) * chunkBytes))
}
