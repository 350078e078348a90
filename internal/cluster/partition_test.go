package cluster

import (
	"testing"

	"repro/internal/cluster/clustertest"
	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

// buildSlots / upPeer / downPeer alias the shared multi-swarm trace
// generator (clustertest), which the BenchmarkShard* suite replays too —
// one workload shape for goldens and recorded benchmarks alike.
var (
	buildSlots = clustertest.BuildSlots
	upPeer     = clustertest.UpPeer
	downPeer   = clustertest.DownPeer
)

func TestPartitionFindsSwarmComponents(t *testing.T) {
	in := buildSlots(1, 1, 3, 20, 6, 0, false)[0]
	p := PartitionInstance(in)
	if len(p.Shards) != 3 {
		t.Fatalf("got %d shards, want 3: %+v", len(p.Shards), p.Shards)
	}
	totalReq, totalUp := 0, 0
	for i, sh := range p.Shards {
		if sh.Key != video.ID(i) {
			t.Errorf("shard %d key = %+v", i, sh.Key)
		}
		if len(sh.Requests) != 20 {
			t.Errorf("shard %d has %d requests, want 20", i, len(sh.Requests))
		}
		totalReq += len(sh.Requests)
		totalUp += len(sh.Uploaders)
		// Every request's candidates must stay inside its shard's uploaders.
		ups := make(map[isp.PeerID]bool)
		for _, ui := range sh.Uploaders {
			ups[in.Uploaders[ui].Peer] = true
		}
		for _, ri := range sh.Requests {
			for _, c := range in.Requests[ri].Candidates {
				if !ups[c.Peer] {
					t.Fatalf("shard %d request %d candidate %d crosses shards", i, ri, c.Peer)
				}
			}
		}
	}
	if totalReq+len(p.Orphans) != len(in.Requests) {
		t.Errorf("requests covered %d+%d orphans, want %d", totalReq, len(p.Orphans), len(in.Requests))
	}
	if totalUp+len(p.IdleUploaders) != len(in.Uploaders) {
		t.Errorf("uploaders covered %d+%d idle, want %d", totalUp, len(p.IdleUploaders), len(in.Uploaders))
	}
}

func TestPartitionOrphansAndIdleUploaders(t *testing.T) {
	ups := []sched.Uploader{
		{Peer: 1, Capacity: 2},
		{Peer: 2, Capacity: 2}, // never a candidate: idle
	}
	reqs := []sched.Request{
		{Peer: 100, Chunk: video.ChunkID{Video: 7}, Value: 3,
			Candidates: []sched.Candidate{{Peer: 1, Cost: 1}}},
		{Peer: 101, Chunk: video.ChunkID{Video: 7, Index: 1}, Value: 3}, // no candidates: orphan
	}
	in, err := sched.NewInstance(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionInstance(in)
	if len(p.Shards) != 1 || len(p.Shards[0].Requests) != 1 {
		t.Fatalf("shards = %+v", p.Shards)
	}
	if len(p.Orphans) != 1 || p.Orphans[0] != 1 {
		t.Errorf("orphans = %v, want [1]", p.Orphans)
	}
	if len(p.IdleUploaders) != 1 || p.IdleUploaders[0] != 1 {
		t.Errorf("idle uploaders = %v, want [1]", p.IdleUploaders)
	}
}

// TestPartitionMergesSameVideoComponents pins the stable-key rule: two
// disconnected components of the same swarm fold into one shard, so the
// shard keeps one solver no matter how the neighbor graph fragments.
func TestPartitionMergesSameVideoComponents(t *testing.T) {
	ups := []sched.Uploader{{Peer: 1, Capacity: 1}, {Peer: 2, Capacity: 1}}
	reqs := []sched.Request{
		{Peer: 100, Chunk: video.ChunkID{Video: 3}, Value: 2,
			Candidates: []sched.Candidate{{Peer: 1, Cost: 0}}},
		{Peer: 101, Chunk: video.ChunkID{Video: 3, Index: 1}, Value: 2,
			Candidates: []sched.Candidate{{Peer: 2, Cost: 0}}},
	}
	in, err := sched.NewInstance(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionInstance(in)
	if len(p.Shards) != 1 {
		t.Fatalf("got %d shards, want 1 (same video key): %+v", len(p.Shards), p.Shards)
	}
	if got := p.Shards[0]; len(got.Requests) != 2 || len(got.Uploaders) != 2 {
		t.Fatalf("merged shard = %+v", got)
	}
}
