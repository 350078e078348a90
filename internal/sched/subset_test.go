package sched

import (
	"reflect"
	"testing"

	"repro/internal/isp"
	"repro/internal/video"
)

func subsetFixture(t *testing.T) *Instance {
	t.Helper()
	ups := []Uploader{
		{Peer: 10, Capacity: 2},
		{Peer: 11, Capacity: 1},
		{Peer: 12, Capacity: 3},
	}
	reqs := []Request{
		{Peer: 100, Chunk: video.ChunkID{Video: 1}, Value: 5,
			Candidates: []Candidate{{Peer: 10, Cost: 1}, {Peer: 11, Cost: 2}}},
		{Peer: 101, Chunk: video.ChunkID{Video: 1, Index: 1}, Value: 4,
			Candidates: []Candidate{{Peer: 11, Cost: 1}}},
		{Peer: 102, Chunk: video.ChunkID{Video: 2}, Value: 3,
			Candidates: []Candidate{{Peer: 12, Cost: 1}}},
	}
	in, err := NewInstance(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSubsetKeepsIntactCandidateLists(t *testing.T) {
	in := subsetFixture(t)
	sub, err := in.Subset([]int{0, 1}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Requests) != 2 || len(sub.Uploaders) != 2 {
		t.Fatalf("subset sized %dx%d, want 2x2", len(sub.Requests), len(sub.Uploaders))
	}
	// All candidates inside the subset: the slice must be shared, not copied.
	if &sub.Requests[0].Candidates[0] != &in.Requests[0].Candidates[0] {
		t.Error("intact candidate list was copied instead of shared")
	}
	if _, ok := sub.UploaderIndex(12); ok {
		t.Error("uploader outside the subset is indexed")
	}
}

func TestSubsetFiltersCrossSubsetCandidates(t *testing.T) {
	in := subsetFixture(t)
	// Only uploader 10 in the subset: request 0 loses its edge to 11.
	sub, err := in.Subset([]int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := []Candidate{{Peer: 10, Cost: 1}}
	if !reflect.DeepEqual(sub.Requests[0].Candidates, want) {
		t.Fatalf("candidates = %v, want %v", sub.Requests[0].Candidates, want)
	}
	// The parent instance is untouched.
	if len(in.Requests[0].Candidates) != 2 {
		t.Fatal("Subset mutated the parent instance")
	}
}

func TestSubsetRejectsBadIndices(t *testing.T) {
	in := subsetFixture(t)
	if _, err := in.Subset([]int{0}, []int{7}); err == nil {
		t.Error("out-of-range uploader index accepted")
	}
	if _, err := in.Subset([]int{-1}, []int{0}); err == nil {
		t.Error("negative request index accepted")
	}
	if _, err := in.Subset([]int{0}, []int{0, 0}); err == nil {
		t.Error("duplicate uploader index accepted")
	}
}

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestSubsetAllocs pins Subset's cost to the subset: carving the same
// 20-request shard costs the same constant allocation count out of a
// parent with 1 000 or 10 000 uploaders (the sub-instance, its request,
// uploader and row tables — no index, nothing per parent row).
func TestSubsetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	counts := map[int]float64{}
	for _, nUp := range []int{1000, 10000} {
		ups := make([]Uploader, nUp)
		for i := range ups {
			ups[i] = Uploader{Peer: isp.PeerID(i), Capacity: 2}
		}
		var reqs []Request
		var reqIdx []int
		for r := 0; r < 20; r++ {
			var cands []Candidate
			for k := 0; k < 4; k++ {
				cands = append(cands, Candidate{Peer: isp.PeerID(nUp/2 + (r+k)%8), Cost: float64(k)})
			}
			reqIdx = append(reqIdx, len(reqs))
			reqs = append(reqs, Request{Peer: isp.PeerID(nUp + r), Chunk: video.ChunkID{Video: 1, Index: video.ChunkIndex(r)}, Value: 5, Candidates: cands})
		}
		in, err := NewInstance(reqs, ups)
		if err != nil {
			t.Fatal(err)
		}
		upIdx := []int{nUp/2 + 0, nUp/2 + 1, nUp/2 + 2, nUp/2 + 3, nUp/2 + 4, nUp/2 + 5, nUp/2 + 6, nUp/2 + 7}
		if _, err := in.Subset(reqIdx, upIdx); err != nil {
			t.Fatal(err)
		}
		counts[nUp] = testing.AllocsPerRun(100, func() {
			if _, err := in.Subset(reqIdx, upIdx); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("Subset allocations: %v", counts)
	if counts[1000] != counts[10000] {
		t.Fatalf("Subset allocates %v at 1k uploaders but %v at 10k", counts[1000], counts[10000])
	}
	if counts[1000] > 4 {
		t.Fatalf("Subset allocates %v, want at most 4", counts[1000])
	}
}
