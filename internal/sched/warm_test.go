package sched

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/video"
)

// churnInstances synthesizes a slot sequence the way a swarm under churn
// produces them: a peer population that joins and leaves, windows that slide
// (requests appear and disappear), and per-slot re-valuations. Integer
// values and costs keep edge weights integral, so with ε < 1/(n+1) both warm
// and cold solves are exactly optimal and must produce identical welfare.
func churnInstances(t *testing.T, seed uint64, slots, basePeers int) []*Instance {
	t.Helper()
	rng := randx.New(seed)
	type peerState struct {
		id       isp.PeerID
		capacity int
	}
	var peers []peerState
	nextID := isp.PeerID(100)
	for i := 0; i < basePeers; i++ {
		peers = append(peers, peerState{id: nextID, capacity: 1 + rng.Intn(3)})
		nextID++
	}
	var out []*Instance
	nextChunk := 0
	for slot := 0; slot < slots; slot++ {
		if slot > 0 {
			// Churn ~20% of the population.
			var kept []peerState
			for _, p := range peers {
				if len(peers) > 4 && rng.Float64() < 0.1 {
					continue
				}
				if rng.Float64() < 0.2 {
					p.capacity = 1 + rng.Intn(3)
				}
				kept = append(kept, p)
			}
			peers = kept
			joins := rng.Intn(3)
			for i := 0; i < joins; i++ {
				peers = append(peers, peerState{id: nextID, capacity: 1 + rng.Intn(3)})
				nextID++
			}
		}
		uploaders := make([]Uploader, len(peers))
		for i, p := range peers {
			uploaders[i] = Uploader{Peer: p.id, Capacity: p.capacity}
		}
		var reqs []Request
		for _, p := range peers {
			wants := 1 + rng.Intn(3)
			for c := 0; c < wants; c++ {
				var cands []Candidate
				for _, u := range peers {
					if u.id != p.id && rng.Float64() < 0.5 {
						cands = append(cands, Candidate{Peer: u.id, Cost: float64(rng.Intn(5))})
					}
				}
				if len(cands) == 0 {
					continue
				}
				// Re-requested chunks (sliding window): reuse a recent index
				// half the time so keys persist across slots.
				idx := nextChunk
				if nextChunk > 0 && rng.Float64() < 0.5 {
					idx = rng.Intn(nextChunk)
				} else {
					nextChunk++
				}
				reqs = append(reqs, Request{
					Peer:       p.id,
					Chunk:      video.ChunkID{Video: 0, Index: video.ChunkIndex(idx)},
					Value:      float64(2 + rng.Intn(8)),
					Candidates: cands,
				})
			}
		}
		// Dedup (peer, chunk) keys the synthetic generator may collide on.
		seen := make(map[reqKey]bool, len(reqs))
		var unique []Request
		for i := range reqs {
			if k := key(&reqs[i]); !seen[k] {
				seen[k] = true
				unique = append(unique, reqs[i])
			}
		}
		in, err := NewInstance(unique, uploaders)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

func TestWarmAuctionMatchesColdWelfare(t *testing.T) {
	// Integer weights + small ε ⇒ warm and cold welfare identical per slot,
	// even though the assignments may differ among ties.
	const eps = 1e-3
	for _, seed := range []uint64{1, 2, 3} {
		instances := churnInstances(t, seed, 12, 10)
		warm := &WarmAuction{Epsilon: eps}
		cold := &Auction{Epsilon: eps}
		for slot, in := range instances {
			wr, err := warm.Schedule(in)
			if err != nil {
				t.Fatalf("seed %d slot %d: %v", seed, slot, err)
			}
			cr, err := cold.Schedule(in)
			if err != nil {
				t.Fatalf("seed %d slot %d: %v", seed, slot, err)
			}
			if err := in.Validate(wr.Grants); err != nil {
				t.Fatalf("seed %d slot %d: warm grants invalid: %v", seed, slot, err)
			}
			ww, err := in.Welfare(wr.Grants)
			if err != nil {
				t.Fatal(err)
			}
			cw, err := in.Welfare(cr.Grants)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ww-cw) > 1e-9 {
				t.Fatalf("seed %d slot %d: warm welfare %v != cold welfare %v",
					seed, slot, ww, cw)
			}
		}
	}
}

func TestWarmAuctionDeterministic(t *testing.T) {
	instances := churnInstances(t, 9, 8, 8)
	run := func() [][]Grant {
		warm := &WarmAuction{Epsilon: 0.01}
		var grants [][]Grant
		for _, in := range instances {
			res, err := warm.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			grants = append(grants, res.Grants)
		}
		return grants
	}
	if first, second := run(), run(); !reflect.DeepEqual(first, second) {
		t.Fatal("warm auction grants differ across identical replays")
	}
}

func TestWarmAuctionFirstSlotMatchesCold(t *testing.T) {
	// With no carried state the warm scheduler is the cold auction.
	in := smallInstance(t)
	warm := &WarmAuction{Epsilon: 0.01}
	cold := &Auction{Epsilon: 0.01}
	wr, err := warm.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := cold.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wr.Grants, cr.Grants) {
		t.Fatalf("grants differ: warm %v, cold %v", wr.Grants, cr.Grants)
	}
	if !reflect.DeepEqual(wr.Prices, cr.Prices) {
		t.Fatalf("prices differ: warm %v, cold %v", wr.Prices, cr.Prices)
	}
}

func TestWarmAuctionCarriesAcrossIdenticalSlots(t *testing.T) {
	in := smallInstance(t)
	warm := &WarmAuction{Epsilon: 0.01}
	if _, err := warm.Schedule(in); err != nil {
		t.Fatal(err)
	}
	res, err := warm.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats["carried"] != float64(len(in.Requests)) {
		t.Fatalf("carried = %v, want %d (identical slot)", res.Stats["carried"], len(in.Requests))
	}
	if res.Stats["bids"] != 0 {
		t.Fatalf("identical slot re-bid %v times, want 0", res.Stats["bids"])
	}
}

func TestWarmAuctionCompactsUnderLongChurn(t *testing.T) {
	// Enough slots of heavy request turnover to cross the compaction
	// threshold; the run must stay correct afterwards.
	instances := churnInstances(t, 17, 60, 12)
	warm := &WarmAuction{Epsilon: 1e-3}
	cold := &Auction{Epsilon: 1e-3}
	compacted := false
	for slot, in := range instances {
		deadBefore, _ := warm.solverDead()
		wr, err := warm.Schedule(in)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if deadAfter, _ := warm.solverDead(); deadAfter < deadBefore {
			compacted = true
		}
		cr, err := cold.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		ww, _ := in.Welfare(wr.Grants)
		cw, _ := in.Welfare(cr.Grants)
		if math.Abs(ww-cw) > 1e-9 {
			t.Fatalf("slot %d: warm welfare %v != cold %v", slot, ww, cw)
		}
	}
	if !compacted {
		t.Skip("churn never crossed the compaction threshold; raise turnover to cover Compact")
	}
}

// solverDead exposes the solver's garbage counters to the compaction test.
// TestWarmAuctionCompactsUnderUploaderChurn drives the solver past its
// compaction threshold with uploader turnover: most uploaders are replaced
// every slot (their sinks die) while a core set persists, so compaction
// must rewrite the sink ids of carried uploaders and re-derive the
// sink→uploader map from the per-row caches. Integer weights with
// ε < 1/(n+1) make warm and cold exactly optimal, so their welfare must
// match every slot, before and after compaction.
func TestWarmAuctionCompactsUnderUploaderChurn(t *testing.T) {
	rng := randx.New(23)
	warm := &WarmAuction{Epsilon: 0.005}
	cold := &Auction{Epsilon: 0.005}
	next := isp.PeerID(1000)
	compactions := 0
	for slot := 0; slot < 260; slot++ {
		ups := []Uploader{{Peer: 1, Capacity: 3}, {Peer: 2, Capacity: 2}, {Peer: 3, Capacity: 1}}
		for i := 0; i < 37; i++ {
			ups = append(ups, Uploader{Peer: next, Capacity: rng.Intn(3)})
			next++
		}
		var reqs []Request
		for r := 0; r < 60; r++ {
			var cands []Candidate
			for _, u := range rng.Perm(len(ups))[:3] {
				cands = append(cands, Candidate{Peer: ups[u].Peer, Cost: float64(rng.Intn(4))})
			}
			reqs = append(reqs, Request{
				Peer: isp.PeerID(100 + r), Chunk: video.ChunkID{Index: video.ChunkIndex(slot)},
				Value: float64(2 + rng.Intn(6)), Candidates: cands,
			})
		}
		in, err := NewInstance(reqs, ups)
		if err != nil {
			t.Fatal(err)
		}
		_, deadBefore := warm.solverDead()
		wr, err := warm.Schedule(in)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if _, deadAfter := warm.solverDead(); deadAfter < deadBefore {
			compactions++
		}
		if err := in.Validate(wr.Grants); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		cr, err := cold.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		ww, _ := in.Welfare(wr.Grants)
		cw, _ := in.Welfare(cr.Grants)
		if math.Abs(ww-cw) > 1e-9 {
			t.Fatalf("slot %d (after %d compactions): warm welfare %v != cold %v", slot, compactions, ww, cw)
		}
	}
	if compactions == 0 {
		t.Fatal("uploader churn never crossed the compaction threshold")
	}
}

func (a *WarmAuction) solverDead() (int, int) {
	if a.solver == nil {
		return 0, 0
	}
	return a.solver.Dead()
}

// TestWarmAuctionFailedCallLeavesNoGhosts pins the failure reset: a call
// whose delta the solver rejects must not leave its departed requests live
// in the solver. Request A (value 9 on uploader 10) departs in the failing
// call; if it lingered, it would outbid C for uploader 10 afterwards.
func TestWarmAuctionFailedCallLeavesNoGhosts(t *testing.T) {
	ups := []Uploader{{Peer: 10, Capacity: 1}, {Peer: 11, Capacity: 1}}
	chunk := video.ChunkID{Video: 0, Index: 1}
	a := Request{Peer: 1, Chunk: chunk, Value: 9, Candidates: []Candidate{{Peer: 10}}}
	b := Request{Peer: 2, Chunk: chunk, Value: 5, Candidates: []Candidate{{Peer: 11}, {Peer: 11}}}
	c := Request{Peer: 3, Chunk: chunk, Value: 2, Candidates: []Candidate{{Peer: 10}}}
	inst := func(reqs ...Request) *Instance {
		in, err := NewInstance(reqs, ups)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	warm := &WarmAuction{Epsilon: 0.01}
	if _, err := warm.Schedule(inst(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Schedule(inst(b, c)); err == nil {
		t.Fatal("a request naming one uploader twice must fail the call")
	}
	got, err := warm.Schedule(inst(c))
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&WarmAuction{Epsilon: 0.01}).Schedule(inst(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Grants) != 1 {
		t.Fatalf("fresh solver granted %v, want C served", want.Grants)
	}
	if !reflect.DeepEqual(got.Grants, want.Grants) || !reflect.DeepEqual(got.Prices, want.Prices) {
		t.Fatalf("after a failed call: grants %v prices %v, fresh solver: grants %v prices %v",
			got.Grants, got.Prices, want.Grants, want.Prices)
	}
}

// TestWarmAuctionRepeatedKeyMatchesCold pins key matching under a
// (peer, chunk) key repeated within one instance: each previous row is
// carried at most once, later repeats are new requests, so every slot
// schedules like a cold auction.
func TestWarmAuctionRepeatedKeyMatchesCold(t *testing.T) {
	chunk := video.ChunkID{Video: 0, Index: 1}
	ups := []Uploader{{Peer: 10, Capacity: 1}, {Peer: 11, Capacity: 1}}
	slots := [][]Request{
		{{Peer: 1, Chunk: chunk, Value: 4, Candidates: []Candidate{{Peer: 10}}},
			{Peer: 1, Chunk: chunk, Value: 3, Candidates: []Candidate{{Peer: 11}}}},
		{{Peer: 1, Chunk: chunk, Value: 4, Candidates: []Candidate{{Peer: 10}}},
			{Peer: 1, Chunk: chunk, Value: 3, Candidates: []Candidate{{Peer: 11}}}},
		{{Peer: 1, Chunk: chunk, Value: 2, Candidates: []Candidate{{Peer: 11}}}},
		{{Peer: 2, Chunk: chunk, Value: 5, Candidates: []Candidate{{Peer: 11}}},
			{Peer: 1, Chunk: chunk, Value: 2, Candidates: []Candidate{{Peer: 11}}},
			{Peer: 1, Chunk: chunk, Value: 6, Candidates: []Candidate{{Peer: 11}}}},
	}
	warm := &WarmAuction{Epsilon: 0.01}
	for slot, reqs := range slots {
		in, err := NewInstance(reqs, ups)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := warm.Schedule(in)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if err := in.Validate(wr.Grants); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		cr, err := (&Auction{Epsilon: 0.01}).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		ww, _ := in.Welfare(wr.Grants)
		cw, _ := in.Welfare(cr.Grants)
		if math.Abs(ww-cw) > 1e-9 {
			t.Fatalf("slot %d: warm welfare %v != cold %v (grants %v)", slot, ww, cw, wr.Grants)
		}
	}
}
