package cluster

import (
	"testing"

	"repro/internal/cluster/clustertest"
	"repro/internal/economics"
	"repro/internal/isp"
	"repro/internal/sched"
)

// TestShardedTrafficMatrixRecombinesExactly is the economics half of the
// sharding contract: decompose a sharded solve's grants by owning shard,
// build each shard's ISP×ISP traffic ledger independently, and the merged
// ledgers equal the ledger of the full grant set cell for cell — the
// monolithic traffic matrix of that run, reproduced exactly from the
// per-shard pieces via economics.Matrix.Merge. This is what lets a
// distributed evaluation bill ISPs from per-shard accounting without ever
// materializing the global grant stream.
func TestShardedTrafficMatrixRecombinesExactly(t *testing.T) {
	const numISPs = 5
	// Spread the synthetic trace's peers over the ISPs by id.
	ispOf := func(p isp.PeerID) (isp.ID, bool) { return isp.ID(int(p) % numISPs), true }
	slots := clustertest.BuildSlots(7, 6, 6, 40, 12, 0.10, false)
	sa := &ShardedAuction{Epsilon: 0.01, Workers: 4}

	for si, in := range slots {
		res, err := sa.Schedule(in)
		if err != nil {
			t.Fatalf("slot %d: %v", si, err)
		}
		part := PartitionInstance(in)
		// Assign every granted request to its owning shard.
		owner := make(map[int]int, len(in.Requests)) // request index -> shard index
		for shi, sh := range part.Shards {
			for _, ri := range sh.Requests {
				owner[ri] = shi
			}
		}
		perShard := make([][]sched.Grant, len(part.Shards))
		for _, g := range res.Grants {
			shi, ok := owner[g.Request]
			if !ok {
				t.Fatalf("slot %d: granted request %d belongs to no shard", si, g.Request)
			}
			perShard[shi] = append(perShard[shi], g)
		}
		merged, err := economics.NewMatrix(numISPs)
		if err != nil {
			t.Fatal(err)
		}
		for shi, grants := range perShard {
			m, err := economics.FromGrants(in, grants, ispOf, numISPs)
			if err != nil {
				t.Fatalf("slot %d shard %d: %v", si, shi, err)
			}
			if err := merged.Merge(m); err != nil {
				t.Fatal(err)
			}
		}
		full, err := economics.FromGrants(in, res.Grants, ispOf, numISPs)
		if err != nil {
			t.Fatalf("slot %d: %v", si, err)
		}
		if !merged.Equal(full) {
			t.Fatalf("slot %d: merged per-shard ledgers != monolithic ledger\nmerged: %v\nfull:   %v",
				si, merged.Rows(), full.Rows())
		}
		if full.Total() != int64(len(res.Grants)) {
			t.Fatalf("slot %d: ledger total %d != %d grants", si, full.Total(), len(res.Grants))
		}
	}
}
