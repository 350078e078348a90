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
// index, and one pass in shard-key order merges them. Locality is priced
// inside each market through the edge costs w_{u→d}; the partition never
// cuts an edge to enforce it.
//
// The pieces:
//
//   - PartitionInstance (partition.go): one flat pass over the slot's
//     bipartite graph on reused arrays — union-find over uploader rows,
//     swarm-keyed grouping, member lists laid out by a counting pass, a
//     table from each parent uploader row to its shard-local sink;
//   - ShardedAuction (sharded.go): the sched.Scheduler that owns the
//     per-shard auctions, runs them on a bounded worker pool, each solving
//     its shard as a sched.View of the parent, merges grants/prices/stats
//     in one pass and manages shard lifecycle under churn (birth, idle
//     reclamation, peer migration accounting);
//   - VerifySharded (referee.go): the golden referee used by the tests and
//     the SelfCheck mode.
package cluster
