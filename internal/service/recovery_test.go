package service

// recovery_test.go: the two shutdown drills. TestDrainDuringBidStorm races a
// graceful drain against wall-clock ticks and in-flight HTTP writes (run it
// under -race). TestCrashRecoveryGolden is the pinned kill/restore golden:
// a SIGKILL-equivalent at the injected kill point, restart from the periodic
// snapshot, and post-recovery welfare re-converging to the uninterrupted
// run's within the ε-CS certificate band.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

// TestDrainDuringBidStorm: SIGTERM-equivalent in the middle of a bid storm.
// Drain must stop the slot clock, run one final tick (its solve held to the
// same deadline as every tick), and write exactly one consistent snapshot —
// while HTTP writers keep hammering and reads keep answering.
func TestDrainDuringBidStorm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	d, err := New(Options{
		Epsilon:        0.01,
		SlotInterval:   2 * time.Millisecond,
		SnapshotPath:   path,
		SolveDeadline:  5 * time.Millisecond,
		MaxPendingBids: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post := func(path string, body any) (int, error) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, nil
	}

	const workers = 16
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			if code, err := post("/v1/join", JoinRequest{Peer: id, ISP: int(id % 3)}); err != nil || code != http.StatusOK {
				t.Errorf("join %d: code %d err %v", id, code, err)
				return
			}
			for r := 0; !stop.Load(); r++ {
				// Books may be full (429) mid-storm; that is the shedding
				// path working, not a failure.
				if _, err := post("/v1/offer", OfferRequest{Peer: id, Capacity: 2}); err != nil {
					t.Errorf("offer %d: %v", id, err)
					return
				}
				_, err := post("/v1/bid", BidBatch{Peer: id, Bids: []WireBid{{
					Video: int32(id % 4), Chunk: int32(r % 64), Value: 1.5,
					Candidates: []WireCandidate{{Peer: (id + 1) % workers, Cost: 0.2}},
				}}})
				if err != nil {
					t.Errorf("bid %d: %v", id, err)
					return
				}
			}
		}(int64(w))
	}

	time.Sleep(25 * time.Millisecond) // let the storm and the clock overlap
	if err := d.Drain(); err != nil {
		t.Fatalf("drain under storm: %v", err)
	}
	// Reads keep answering after drain (process shutdown is the caller's job).
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after drain: %v code %v", err, resp)
	}
	resp.Body.Close()
	stop.Store(true)
	wg.Wait()

	// The snapshot on disk is point-in-time consistent with the drained
	// daemon: the final tick and the write happened under one lock hold, and
	// no tick may run afterwards.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot missing after drain: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot corrupt after drain: %v", err)
	}
	st := d.Stats()
	if snap.Slot != st.Slot {
		t.Fatalf("snapshot slot %d != daemon slot %d", snap.Slot, st.Slot)
	}
	if snap.Totals.Ticks != st.Totals.Ticks {
		t.Fatalf("snapshot ticks %d != daemon ticks %d", snap.Totals.Ticks, st.Totals.Ticks)
	}
	if st.Totals.Ticks == 0 {
		t.Fatal("clock never ticked before the drain")
	}
}

// recoveryTrace replays one deterministic slot of traffic: every peer offers,
// every peer bids on a slot-dependent chunk naming two deterministic
// candidates. Pure function of (slot, peer) so two daemons fed the same slots
// build identical instances.
func recoveryTrace(t *testing.T, d *Daemon, slot int64, peers int) {
	t.Helper()
	for p := 0; p < peers; p++ {
		if err := d.Offer(isp.PeerID(p), 2); err != nil {
			t.Fatalf("slot %d offer %d: %v", slot, p, err)
		}
	}
	for p := 0; p < peers; p++ {
		up1 := isp.PeerID((p + 1) % peers)
		up2 := isp.PeerID((p + 3) % peers)
		err := d.Bid(isp.PeerID(p), []BidRequest{{
			Chunk: video.ChunkID{Video: video.ID(p % 4), Index: video.ChunkIndex(slot)},
			Value: 1.0 + float64((p*7+int(slot)*3)%10)/10.0,
			Candidates: []sched.Candidate{
				{Peer: up1, Cost: 0.1 + float64(p%3)/10.0},
				{Peer: up2, Cost: 0.15 + float64(int(slot)%3)/10.0},
			},
		}})
		if err != nil {
			t.Fatalf("slot %d bid %d: %v", slot, p, err)
		}
	}
}

// TestCrashRecoveryGolden: run a deterministic trace twice — once
// uninterrupted, once SIGKILLed at the injected kill point and restored from
// the periodic snapshot — and pin that every post-recovery slot's welfare
// matches the uninterrupted run's within the summed ε-CS band (each run's
// solve carries its own ε·n certificate; the restored solver re-converges
// from cold prices, so 2·ε·n is the theoretical envelope).
func TestCrashRecoveryGolden(t *testing.T) {
	const (
		eps      = 0.01
		peers    = 12
		slots    = 8
		killTick = 4
	)
	// Reference: the uninterrupted run.
	ref := manual(t, Options{Epsilon: eps})
	for p := 0; p < peers; p++ {
		if err := ref.Join(isp.PeerID(p), isp.ID(p%3)); err != nil {
			t.Fatal(err)
		}
	}
	refWelfare := make([]float64, slots)
	refRequests := make([]int, slots)
	for s := 0; s < slots; s++ {
		recoveryTrace(t, ref, int64(s), peers)
		tr, err := ref.Tick()
		if err != nil {
			t.Fatal(err)
		}
		refWelfare[s] = tr.Welfare
		refRequests[s] = tr.Requests
	}

	// Crash run: periodic snapshots, kill point after killTick ticks.
	path := filepath.Join(t.TempDir(), "snap.json")
	victim := manual(t, Options{
		Epsilon:       eps,
		SnapshotPath:  path,
		SnapshotEvery: 1,
		Fault:         fault.Spec{KillAfterTicks: killTick},
	})
	for p := 0; p < peers; p++ {
		if err := victim.Join(isp.PeerID(p), isp.ID(p%3)); err != nil {
			t.Fatal(err)
		}
	}
	killed := false
	for s := 0; s < slots && !killed; s++ {
		recoveryTrace(t, victim, int64(s), peers)
		if _, err := victim.Tick(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-victim.KillPoint():
			killed = true
		default:
		}
	}
	if !killed {
		t.Fatalf("kill point never tripped within %d slots", slots)
	}
	// SIGKILL-equivalent: no Drain, no final snapshot — the daemon dies with
	// whatever the last periodic snapshot captured.
	victim.Close()

	// Restart from the snapshot and replay the rest of the trace.
	restored := manual(t, Options{Epsilon: eps, SnapshotPath: path})
	st := restored.Stats()
	if st.Slot != killTick {
		t.Fatalf("restored at slot %d, want %d", st.Slot, killTick)
	}
	if st.Peers != peers {
		t.Fatalf("restored %d peers, want %d", st.Peers, peers)
	}
	for s := killTick; s < slots; s++ {
		recoveryTrace(t, restored, int64(s), peers)
		tr, err := restored.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Slot != int64(s) {
			t.Fatalf("restored run at slot %d, trace at %d", tr.Slot, s)
		}
		if tr.Requests != refRequests[s] {
			t.Fatalf("slot %d: %d requests after restore, reference had %d",
				s, tr.Requests, refRequests[s])
		}
		band := 2*eps*float64(refRequests[s]) + 1e-9
		if diff := math.Abs(tr.Welfare - refWelfare[s]); diff > band {
			t.Fatalf("slot %d: post-recovery welfare %v vs uninterrupted %v — Δ=%g exceeds the 2ε·n band %g",
				s, tr.Welfare, refWelfare[s], diff, band)
		}
	}
}

// TestCrashRecoveryGoldenSharded runs the same drill through the sharded
// orchestrator, covering the ISP-lookup mirror's restore path.
func TestCrashRecoveryGoldenSharded(t *testing.T) {
	const (
		eps      = 0.01
		peers    = 12
		slots    = 6
		killTick = 3
	)
	path := filepath.Join(t.TempDir(), "snap.json")
	victim := manual(t, Options{
		Epsilon: eps, Sharded: true,
		SnapshotPath: path, SnapshotEvery: 1,
		Fault: fault.Spec{KillAfterTicks: killTick},
	})
	for p := 0; p < peers; p++ {
		if err := victim.Join(isp.PeerID(p), isp.ID(p%3)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < killTick; s++ {
		recoveryTrace(t, victim, int64(s), peers)
		if _, err := victim.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-victim.KillPoint():
	default:
		t.Fatal("kill point did not trip")
	}
	victim.Close()

	restored := manual(t, Options{Epsilon: eps, Sharded: true, SnapshotPath: path})
	if st := restored.Stats(); st.Slot != killTick || st.Peers != peers {
		t.Fatalf("sharded restore landed at slot %d with %d peers", st.Slot, st.Peers)
	}
	for s := killTick; s < slots; s++ {
		recoveryTrace(t, restored, int64(s), peers)
		tr, err := restored.Tick()
		if err != nil {
			t.Fatalf("sharded post-recovery tick %d: %v", s, err)
		}
		if tr.Grants == 0 {
			t.Fatalf("sharded post-recovery slot %d granted nothing", s)
		}
	}
}
