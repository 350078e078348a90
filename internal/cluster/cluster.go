// Package cluster is the sharded swarm orchestrator: it partitions one
// slot's scheduling problem into its independent components and solves them
// as separate markets, concurrently, each with its own cold auction.
//
// The decomposition is exact, not heuristic: a downloader only bids at
// uploaders in its neighbor list, so the slot problem (paper §III, problem
// (1)) is a union of connected components of the request–uploader bipartite
// graph — in the VoD world, one component per swarm (video), since neighbor
// lists never cross videos. Solving the components separately and merging
// the results yields the same ε-complementary-slackness certificate as one
// monolithic solve: prices and assignments never interact across components
// because no edge crosses them. With the cold auction it is the same
// solution bit for bit: the auction's FIFO bid queue, restricted to one
// component, is that component's own queue. The golden referee
// (VerifySharded) asserts the certificate.
//
// Components are grouped under a stable swarm key (the smallest video id of
// the component's requests), so a shard keeps its identity — and its
// solver's reusable buffers — across slots even as churn reshapes the
// component. A shard is a view of the slot instance, not a copy: its
// auction reads the parent's rows and writes grants and prices by parent
// index, and one pass in shard-key order merges them. Oversized components
// can additionally be split by ISP affinity (the locality literature's
// observation that swarm traffic decomposes per ISP once locality bias is
// in force); that refinement cuts the few cross-ISP edges and is therefore
// no longer exact — the referee then checks the certificate shard by shard
// instead.
//
// The pieces:
//
//   - PartitionInstance (partition.go): one flat pass over the slot's
//     bipartite graph on reused arrays — union-find over uploader rows,
//     swarm-keyed grouping, member lists laid out by a counting pass, a
//     table from each parent uploader row to its shard-local sink — and
//     optional ISP-affinity refinement;
//   - ShardedAuction (sharded.go): the sched.Scheduler that owns the
//     per-shard solvers, runs them on a bounded worker pool with
//     deterministic per-shard randx streams, each solving its shard as a
//     sched.View of the parent, merges grants/prices/stats in one pass and
//     manages shard lifecycle under churn (birth, idle reclamation, peer
//     migration accounting);
//   - VerifySharded (referee.go): the golden referee used by the tests and
//     the SelfCheck mode.
package cluster

import (
	"repro/internal/isp"
	"repro/internal/video"
)

// NoISP marks a shard that is a whole (unrefined) component group rather
// than an ISP-affinity slice of one.
const NoISP isp.ID = -1

// Key identifies a shard stably across slots: the swarm (smallest video id
// of the component's requests) plus, for ISP-refined slices, the ISP.
type Key struct {
	Video video.ID
	ISP   isp.ID // NoISP unless the shard is an ISP-affinity slice
}

// seedLabel folds the key into a stable 64-bit label for randx.Derive, so a
// shard's random stream depends only on its identity — never on how many
// other shards exist or in what order they were born.
func (k Key) seedLabel() uint64 {
	return uint64(k.Video)<<20 ^ uint64(uint32(int32(k.ISP)))<<1 ^ 0x517cc1b727220a95
}
