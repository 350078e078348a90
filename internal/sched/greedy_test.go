package sched

import (
	"testing"

	"repro/internal/isp"
	"repro/internal/video"
)

func greedyInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := NewInstance(
		[]Request{
			{Peer: 10, Chunk: video.ChunkID{Index: 1}, Value: 5, Candidates: []Candidate{{Peer: 1, Cost: 1}, {Peer: 2, Cost: 0.5}}},
			{Peer: 11, Chunk: video.ChunkID{Index: 2}, Value: 8, Candidates: []Candidate{{Peer: 1, Cost: 2}}},
			{Peer: 12, Chunk: video.ChunkID{Index: 3}, Value: 1, Candidates: []Candidate{{Peer: 2, Cost: 3}}}, // negative margin
			{Peer: 13, Chunk: video.ChunkID{Index: 4}, Value: 4, Candidates: []Candidate{{Peer: 1, Cost: 0.1}}},
		},
		[]Uploader{{Peer: 1, Capacity: 1}, {Peer: 2, Capacity: 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestGreedyFeasibleAndRational: grants validate, the negative-margin request
// is left unserved, and the highest-value request wins the contended uploader.
func TestGreedyFeasibleAndRational(t *testing.T) {
	in := greedyInstance(t)
	res, err := Greedy{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(res.Grants); err != nil {
		t.Fatalf("greedy produced infeasible grants: %v", err)
	}
	served := map[int]isp.PeerID{}
	for _, g := range res.Grants {
		served[g.Request] = g.Uploader
	}
	if _, ok := served[2]; ok {
		t.Fatal("greedy granted a negative-margin request")
	}
	if up, ok := served[1]; !ok || up != 1 {
		t.Fatalf("highest-value request should win uploader 1, got %v (served=%v)", up, served)
	}
	if up, ok := served[0]; !ok || up != 2 {
		t.Fatalf("request 0 should fall back to uploader 2, got %v (served=%v)", up, served)
	}
	if _, ok := served[3]; ok {
		t.Fatal("request 3 served although both uploaders were exhausted")
	}
}

// TestGreedyDeterministic: two runs over the same instance agree exactly.
func TestGreedyDeterministic(t *testing.T) {
	in := greedyInstance(t)
	a, _ := Greedy{}.Schedule(in)
	b, _ := Greedy{}.Schedule(in)
	if len(a.Grants) != len(b.Grants) {
		t.Fatalf("grant counts differ: %d vs %d", len(a.Grants), len(b.Grants))
	}
	for i := range a.Grants {
		if a.Grants[i] != b.Grants[i] {
			t.Fatalf("grant %d differs: %+v vs %+v", i, a.Grants[i], b.Grants[i])
		}
	}
}

// TestGreedyWithinAuctionWelfare: the fallback is bounded but not wildly off —
// on this instance it reaches at least half the auction's welfare.
func TestGreedyWithinAuctionWelfare(t *testing.T) {
	in := greedyInstance(t)
	gr, err := Greedy{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	wa, err := (&Auction{Epsilon: 0.01}).Schedule(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	gw, err := in.Welfare(gr.Grants)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := in.Welfare(wa.Grants)
	if err != nil {
		t.Fatal(err)
	}
	if gw < aw/2 {
		t.Fatalf("greedy welfare %v below half the auction's %v", gw, aw)
	}
}

func TestGreedyEmptyInstance(t *testing.T) {
	in, err := NewInstance(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Greedy{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) != 0 {
		t.Fatalf("empty instance produced %d grants", len(res.Grants))
	}
}
