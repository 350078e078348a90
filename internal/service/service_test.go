package service

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

// manual returns a daemon in manual-tick mode (no wall clock).
func manual(t *testing.T, opts Options) *Daemon {
	t.Helper()
	opts.SlotInterval = 0
	d, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

func chunk(v, i int) video.ChunkID {
	return video.ChunkID{Video: video.ID(v), Index: video.ChunkIndex(i)}
}

func TestDaemonLifecycle(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})

	for p := isp.PeerID(1); p <= 3; p++ {
		if err := d.Join(p, isp.ID(int(p)%2)); err != nil {
			t.Fatalf("Join(%d): %v", p, err)
		}
	}
	if err := d.Offer(1, 2); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	bid := func(p isp.PeerID, c video.ChunkID, v float64) {
		t.Helper()
		err := d.Bid(p, []BidRequest{{
			Chunk: c, Value: v,
			Candidates: []sched.Candidate{{Peer: 1, Cost: 0.1}},
		}})
		if err != nil {
			t.Fatalf("Bid(%d): %v", p, err)
		}
	}
	bid(2, chunk(0, 0), 1.0)
	bid(3, chunk(0, 1), 0.8)

	tr, err := d.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if tr.Slot != 0 || tr.Requests != 2 || tr.Uploaders != 1 {
		t.Fatalf("unexpected tick result %+v", tr)
	}
	if tr.Grants != 2 {
		t.Fatalf("want both bids granted (capacity 2), got %d", tr.Grants)
	}
	wantWelfare := (1.0 - 0.1) + (0.8 - 0.1)
	if math.Abs(tr.Welfare-wantWelfare) > 1e-9 {
		t.Fatalf("welfare = %v, want %v", tr.Welfare, wantWelfare)
	}

	slot, gs := d.Grants(2)
	if slot != 0 || len(gs) != 1 || gs[0].Uploader != 1 || gs[0].Chunk != chunk(0, 0) {
		t.Fatalf("Grants(2) = slot %d, %+v", slot, gs)
	}

	// Books drain after the tick; an empty tick is legal and grants reset.
	st := d.Stats()
	if st.PendingBids != 0 || st.PendingOffers != 0 {
		t.Fatalf("books not drained: %+v", st)
	}
	if tr2, err := d.Tick(); err != nil || tr2.Grants != 0 || tr2.Slot != 1 {
		t.Fatalf("empty tick: %+v, %v", tr2, err)
	}
	if _, gs := d.Grants(2); len(gs) != 0 {
		t.Fatalf("grants survived an empty slot: %+v", gs)
	}
}

func TestDaemonBidReplacesSameChunk(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	if err := d.Join(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(1, 1); err != nil {
		t.Fatal(err)
	}
	cands := []sched.Candidate{{Peer: 1, Cost: 0}}
	if err := d.Bid(2, []BidRequest{{Chunk: chunk(0, 0), Value: 1, Candidates: cands}}); err != nil {
		t.Fatal(err)
	}
	// Re-bid for the same chunk: last write wins, book does not grow.
	if err := d.Bid(2, []BidRequest{{Chunk: chunk(0, 0), Value: 5, Candidates: cands}}); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.PendingBids != 1 {
		t.Fatalf("pending bids = %d, want 1", st.PendingBids)
	}
	tr, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Grants != 1 || math.Abs(tr.Welfare-5) > 1e-9 {
		t.Fatalf("replacement bid not used: %+v", tr)
	}
}

func TestDaemonLeaveTombstones(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	for p := isp.PeerID(1); p <= 3; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Offer(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(2, 4); err != nil {
		t.Fatal(err)
	}
	both := []sched.Candidate{{Peer: 1, Cost: 0.5}, {Peer: 2, Cost: 0.1}}
	if err := d.Bid(3, []BidRequest{{Chunk: chunk(0, 0), Value: 1, Candidates: both}}); err != nil {
		t.Fatal(err)
	}
	// Peer 2 (the cheaper uploader) leaves before the tick: its offer is
	// tombstoned and the bid must fall back to peer 1.
	if err := d.Leave(2); err != nil {
		t.Fatal(err)
	}
	tr, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Uploaders != 1 || tr.Grants != 1 {
		t.Fatalf("tick after leave: %+v", tr)
	}
	if _, gs := d.Grants(3); len(gs) != 1 || gs[0].Uploader != 1 {
		t.Fatalf("grant did not fall back to surviving uploader: %+v", gs)
	}

	// A leaving bidder takes its bids with it.
	if err := d.Offer(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Bid(3, []BidRequest{{Chunk: chunk(0, 1), Value: 1, Candidates: []sched.Candidate{{Peer: 1, Cost: 0}}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Leave(3); err != nil {
		t.Fatal(err)
	}
	tr, err = d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests != 0 || tr.Grants != 0 {
		t.Fatalf("departed peer's bid survived: %+v", tr)
	}
	if err := d.Leave(3); err == nil {
		t.Fatal("double Leave should error")
	}
}

func TestDaemonRejectsStarvedBids(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	if err := d.Join(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(2, 0); err != nil {
		t.Fatal(err)
	}
	// Peer 9 never joins or offers; the bid's only candidate is dead weight.
	if err := d.Bid(2, []BidRequest{{Chunk: chunk(0, 0), Value: 1, Candidates: []sched.Candidate{{Peer: 9, Cost: 0}}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(1, 1); err != nil {
		t.Fatal(err)
	}
	tr, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rejected != 1 || tr.Requests != 0 {
		t.Fatalf("starved bid not rejected: %+v", tr)
	}
	if st := d.Stats(); st.Totals.BidsRejected != 1 {
		t.Fatalf("totals.BidsRejected = %d, want 1", st.Totals.BidsRejected)
	}
}

func TestDaemonValidation(t *testing.T) {
	if _, err := New(Options{Epsilon: 0}); err == nil {
		t.Fatal("zero epsilon should be rejected")
	}
	if _, err := New(Options{Epsilon: 0.01, SlotInterval: -time.Second}); err == nil {
		t.Fatal("negative slot interval should be rejected")
	}
	d := manual(t, Options{Epsilon: 0.01})
	if err := d.Join(-1, 0); err == nil {
		t.Fatal("negative peer id should be rejected")
	}
	if err := d.Offer(7, 1); err == nil {
		t.Fatal("Offer before Join should be rejected")
	}
	if err := d.Bid(7, nil); err == nil {
		t.Fatal("Bid before Join should be rejected")
	}
	if err := d.Join(7, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(7, 0); err == nil {
		t.Fatal("non-positive capacity should be rejected")
	}
	if err := d.Bid(7, []BidRequest{{Chunk: chunk(0, 0), Value: 1}}); err == nil {
		t.Fatal("candidate-free bid should be rejected")
	}
}

func TestDaemonSharded(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01, Sharded: true})
	if !strings.Contains(d.SchedulerName(), "shard") {
		t.Fatalf("scheduler = %q, want a sharded auction", d.SchedulerName())
	}
	// Two disconnected swarms → two shards.
	for p := isp.PeerID(1); p <= 4; p++ {
		if err := d.Join(p, isp.ID(int(p)%2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, up := range []isp.PeerID{1, 3} {
		if err := d.Offer(up, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Bid(2, []BidRequest{{Chunk: chunk(0, 0), Value: 1, Candidates: []sched.Candidate{{Peer: 1, Cost: 0}}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Bid(4, []BidRequest{{Chunk: chunk(1, 0), Value: 1, Candidates: []sched.Candidate{{Peer: 3, Cost: 0}}}}); err != nil {
		t.Fatal(err)
	}
	tr, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shards != 2 || tr.Grants != 2 {
		t.Fatalf("sharded tick: %+v", tr)
	}
}

func TestDaemonWallClockTicks(t *testing.T) {
	d, err := New(Options{Epsilon: 0.01, SlotInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	deadline := time.Now().Add(5 * time.Second)
	for d.Slot() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("wall clock stuck at slot %d", d.Slot())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDaemonDrainSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	d := manual(t, Options{Epsilon: 0.01, SnapshotPath: path})
	if err := d.Join(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(2, 8); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Bid(2, []BidRequest{{Chunk: chunk(0, 0), Value: 1, Candidates: []sched.Candidate{{Peer: 1, Cost: 0}}}}); err != nil {
		t.Fatal(err)
	}
	// Drain must solve the outstanding book as a final slot, then snapshot.
	if err := d.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := d.Drain(); err != nil {
		t.Fatalf("second Drain should be a no-op, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if s.Slot != 1 || s.Totals.Ticks != 1 || s.Totals.Grants != 1 || len(s.Peers) != 2 {
		t.Fatalf("snapshot content: %+v", s)
	}
	if s.Peers[0].Peer != 1 || s.Peers[0].ISP != 7 {
		t.Fatalf("snapshot peers unsorted or wrong: %+v", s.Peers)
	}

	// A fresh daemon pointed at the snapshot resumes slot and swarm identity.
	d2 := manual(t, Options{Epsilon: 0.01, SnapshotPath: path})
	if d2.Slot() != 1 {
		t.Fatalf("restored slot = %d, want 1", d2.Slot())
	}
	st := d2.Stats()
	if st.Peers != 2 || st.Totals.Welfare != s.Totals.Welfare {
		t.Fatalf("restored stats: %+v", st)
	}
	// The restored peer needs no re-Join to act.
	if err := d2.Offer(1, 1); err != nil {
		t.Fatalf("restored peer rejected: %v", err)
	}

	// A corrupt snapshot must fail loudly, not silently cold-start.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Epsilon: 0.01, SlotInterval: 0, SnapshotPath: bad}); err == nil {
		t.Fatal("corrupt snapshot should fail New")
	}
}

func TestMetricsExposition(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	if err := d.Join(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Bid(2, []BidRequest{{Chunk: chunk(0, 0), Value: 2, Candidates: []sched.Candidate{{Peer: 1, Cost: 0.5}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	out := scrapeMetrics(t, d)
	for _, want := range []string{
		"# TYPE schedulerd_ticks_total counter",
		"schedulerd_ticks_total 1",
		"schedulerd_bids_total 1",
		"schedulerd_grants_total 1",
		"schedulerd_joins_total 2",
		"schedulerd_peers 2",
		"schedulerd_slot 1",
		"schedulerd_slot_welfare 1.5",
		"schedulerd_welfare_total 1.5",
		"# TYPE schedulerd_solve_seconds histogram",
		`schedulerd_solve_seconds_bucket{le="+Inf"} 1`,
		"schedulerd_solve_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
