package service_test

// End-to-end golden: a short simulator trace served through the live daemon
// grants and earns exactly what the equivalent internal/sim run does.
//
// A recording scheduler wraps the same cold sched.Auction the daemon uses and
// runs a small paper-config simulation, capturing every instance the sim
// solves (cloned — the builder reuses backing arrays) plus the welfare and
// grant count on it. The captured trace then replays against a manual-tick
// daemon over real HTTP through internal/loadtest's client — join/offer/bid
// in instance order, one tick per captured solve — and each tick's welfare
// and grant count must equal the simulator's exactly: both sides solve the
// same market cold with the same solver, and JSON carries float64 exactly,
// so any difference is a wire-contract or book-keeping bug.

import (
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/loadtest"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
)

// capturedTick is one recorded Schedule call.
type capturedTick struct {
	in      *sched.Instance
	welfare float64
	grants  int
}

// recordingScheduler wraps an Auction, recording instances, welfare and
// grant counts.
// It deliberately does NOT implement sched.DeltaScheduler, so the sim feeds
// it self-contained instances through the classic Schedule path (golden-
// pinned identical to the delta path elsewhere in the suite).
type recordingScheduler struct {
	inner *sched.Auction
	ticks []capturedTick
}

func (r *recordingScheduler) Name() string { return r.inner.Name() }

func (r *recordingScheduler) Schedule(in *sched.Instance) (*sched.Result, error) {
	res, err := r.inner.Schedule(in)
	if err != nil {
		return nil, err
	}
	w, err := in.Welfare(res.Grants)
	if err != nil {
		return nil, err
	}
	r.ticks = append(r.ticks, capturedTick{in: in.Clone(), welfare: w, grants: len(res.Grants)})
	return res, nil
}

func e2eConfig() sim.Config {
	cfg := sim.PaperConfig()
	cfg.StaticPeers = 30
	cfg.Slots = 4
	cfg.BidRoundsPerSlot = 2
	cfg.NeighborCount = 8
	cfg.WindowChunks = 20
	return cfg
}

func TestDaemonTraceWelfareEqualsSim(t *testing.T) {
	cfg := e2eConfig()
	rec := &recordingScheduler{inner: &sched.Auction{Epsilon: cfg.Epsilon}}
	res, err := sim.Run(cfg, rec)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if len(rec.ticks) != cfg.Slots*cfg.BidRoundsPerSlot {
		t.Fatalf("captured %d solves, want %d", len(rec.ticks), cfg.Slots*cfg.BidRoundsPerSlot)
	}

	// The capture is tied to the sim run itself: per-slot sums of the
	// captured welfare must reproduce the run's welfare series.
	simWelfare := res.Welfare.Values()
	for slot := 0; slot < cfg.Slots; slot++ {
		sum := 0.0
		for j := 0; j < cfg.BidRoundsPerSlot; j++ {
			sum += rec.ticks[slot*cfg.BidRoundsPerSlot+j].welfare
		}
		if math.Abs(sum-simWelfare[slot]) > 1e-9 {
			t.Fatalf("slot %d: captured welfare %v != sim series %v", slot, sum, simWelfare[slot])
		}
	}

	// Replay the captured trace against a live daemon over HTTP.
	d, err := service.New(service.Options{Epsilon: cfg.Epsilon}) // manual tick
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := loadtest.NewClient(srv.URL)

	joined := make(map[int64]bool)
	join := func(peer int64) {
		t.Helper()
		if joined[peer] {
			return
		}
		if err := c.Join(peer, 0); err != nil {
			t.Fatalf("join %d: %v", peer, err)
		}
		joined[peer] = true
	}

	totalSim, totalDaemon, totalGrants := 0.0, 0.0, int64(0)
	for k, tick := range rec.ticks {
		in := tick.in
		for _, u := range in.Uploaders {
			join(int64(u.Peer))
			if u.Capacity <= 0 {
				continue // a zero-capacity bid round; the daemon has no slot for it
			}
			if err := c.Offer(int64(u.Peer), u.Capacity); err != nil {
				t.Fatalf("tick %d: offer %d: %v", k, u.Peer, err)
			}
		}
		// Requests are grouped per peer in instance order; replay them as
		// per-peer batches to preserve the daemon's book order.
		var batch []loadtest.Bid
		var batchPeer int64
		flush := func() {
			if len(batch) == 0 {
				return
			}
			if err := c.SubmitBids(batchPeer, batch); err != nil {
				t.Fatalf("tick %d: bids for %d: %v", k, batchPeer, err)
			}
			batch = batch[:0]
		}
		for _, r := range in.Requests {
			if len(r.Candidates) == 0 {
				continue // ungrantable; the sim carries them, the API rejects them
			}
			peer := int64(r.Peer)
			join(peer)
			if peer != batchPeer {
				flush()
				batchPeer = peer
			}
			bid := loadtest.Bid{
				Video:    int32(r.Chunk.Video),
				Chunk:    int32(r.Chunk.Index),
				Value:    r.Value,
				Deadline: r.Deadline,
			}
			for _, cand := range r.Candidates {
				bid.Candidates = append(bid.Candidates, loadtest.Candidate{
					Peer: int64(cand.Peer), Cost: cand.Cost,
				})
			}
			batch = append(batch, bid)
		}
		flush()

		tr, err := c.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
		if tr.Welfare != tick.welfare || tr.Grants != tick.grants {
			t.Fatalf("tick %d: daemon welfare %v with %d grants, sim %v with %d",
				k, tr.Welfare, tr.Grants, tick.welfare, tick.grants)
		}
		totalSim += tick.welfare
		totalDaemon += tr.Welfare
		totalGrants += int64(tr.Grants)
	}

	if totalGrants == 0 || totalSim == 0 {
		t.Fatalf("trivial trace: grants=%d simWelfare=%v", totalGrants, totalSim)
	}
	if rel := math.Abs(totalDaemon-totalSim) / totalSim; rel > 0.01 {
		t.Fatalf("run welfare drifted %.2f%%: daemon %v vs sim %v", 100*rel, totalDaemon, totalSim)
	}
	t.Logf("e2e: %d ticks, %d grants, welfare daemon=%.6f sim=%.6f",
		len(rec.ticks), totalGrants, totalDaemon, totalSim)
}
