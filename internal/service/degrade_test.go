package service

// degrade_test.go: the degradation policy under injected faults — deadline
// overruns that carry grants, escalation to the greedy fallback, clean
// solves after an overrun, admission-control shedding (API + HTTP 429), and the
// kill-point / periodic-snapshot plumbing the crash-recovery drill uses.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/isp"
	"repro/internal/sched"
)

// seedBooks joins a couple of peers and fills one offer + one bid so a tick
// has something to solve.
func seedBooks(t *testing.T, d *Daemon) {
	t.Helper()
	for p := isp.PeerID(1); p <= 2; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatalf("Join(%d): %v", p, err)
		}
	}
	if err := d.Offer(1, 2); err != nil {
		t.Fatalf("Offer: %v", err)
	}
	err := d.Bid(2, []BidRequest{{
		Chunk: chunk(0, 0), Value: 1.0,
		Candidates: []sched.Candidate{{Peer: 1, Cost: 0.1}},
	}})
	if err != nil {
		t.Fatalf("Bid: %v", err)
	}
}

// TestSolveDeadlineCarryAndReconverge: a slow solve on the second tick misses
// the deadline, so the slot degrades and carries the first tick's grants;
// once the overrunning solve drains, the solver serves again cleanly.
func TestSolveDeadlineCarryAndReconverge(t *testing.T) {
	d := manual(t, Options{
		Epsilon:       0.01,
		SolveDeadline: 50 * time.Millisecond,
		Fault:         fault.Spec{SolveDelay: 500 * time.Millisecond, SolveDelayEveryN: 2},
	})
	seedBooks(t, d)
	tr1, err := d.Tick() // solve #1: fast
	if err != nil {
		t.Fatalf("tick 1: %v", err)
	}
	if tr1.Degraded || tr1.Grants != 1 {
		t.Fatalf("tick 1 should be clean with one grant: %+v", tr1)
	}

	seedBooks(t, d)
	tr2, err := d.Tick() // solve #2: slow, overruns the deadline
	if err != nil {
		t.Fatalf("tick 2: %v", err)
	}
	if !tr2.Degraded || tr2.Greedy {
		t.Fatalf("tick 2 should degrade without greedy: %+v", tr2)
	}
	if tr2.Grants != 1 {
		t.Fatalf("degraded tick should carry the previous slot's grant: %+v", tr2)
	}
	if tr2.Welfare != 0 {
		t.Fatalf("carried slot must not claim new welfare: %+v", tr2)
	}
	if slot, gs := d.Grants(2); slot != tr2.Slot || len(gs) != 1 {
		t.Fatalf("carried grants not republished at slot %d: got slot %d, %d grants",
			tr2.Slot, slot, len(gs))
	}
	st := d.Stats()
	if st.Totals.DegradedSlots != 1 || st.ConsecutiveOverruns != 1 {
		t.Fatalf("stats after overrun: %+v", st)
	}
	// Carried grants must not inflate the lifetime grant total.
	if st.Totals.Grants != 1 {
		t.Fatalf("carried grants double-counted: %+v", st.Totals)
	}

	time.Sleep(600 * time.Millisecond) // let the overrunning solve finish
	seedBooks(t, d)
	tr3, err := d.Tick() // stale result discarded; solve #3: fast again
	if err != nil {
		t.Fatalf("tick 3: %v", err)
	}
	if tr3.Degraded || tr3.Grants != 1 || tr3.Welfare <= 0 {
		t.Fatalf("tick 3 should solve cleanly again: %+v", tr3)
	}
	if got := d.Stats().ConsecutiveOverruns; got != 0 {
		t.Fatalf("overrun streak should reset, got %d", got)
	}
}

// TestGrantsMetricSkipsCarriedGrants: a degraded carry tick republishes the
// previous slot's grants but issues none, so the scraped grants counter must
// agree with the lifetime total /v1/stats reports.
func TestGrantsMetricSkipsCarriedGrants(t *testing.T) {
	d := manual(t, Options{
		Epsilon:       0.01,
		SolveDeadline: 50 * time.Millisecond,
		Fault:         fault.Spec{SolveDelay: 500 * time.Millisecond, SolveDelayEveryN: 2},
	})
	for tick := 1; tick <= 2; tick++ {
		seedBooks(t, d)
		if _, err := d.Tick(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	st := d.Stats()
	if st.Totals.DegradedSlots != 1 || st.LastGrants != 1 {
		t.Fatalf("tick 2 should carry one grant: %+v", st)
	}
	fam := parseExposition(t, scrapeMetrics(t, d))["schedulerd_grants_total"]
	if got := fam.samples["schedulerd_grants_total"]; got != float64(st.Totals.Grants) {
		t.Fatalf("schedulerd_grants_total = %v, /v1/stats grants = %d", got, st.Totals.Grants)
	}
}

// TestGreedyEscalation: with every solve slow, the second consecutive overrun
// escalates to the greedy fallback, which serves this tick's own bids.
func TestGreedyEscalation(t *testing.T) {
	d := manual(t, Options{
		Epsilon:       0.01,
		SolveDeadline: 20 * time.Millisecond,
		GreedyAfter:   2,
		Fault:         fault.Spec{SolveDelay: time.Second},
	})
	seedBooks(t, d)
	tr1, err := d.Tick()
	if err != nil {
		t.Fatalf("tick 1: %v", err)
	}
	// No previous grants to carry: the first overrun serves nothing.
	if !tr1.Degraded || tr1.Greedy || tr1.Grants != 0 {
		t.Fatalf("tick 1 should carry (empty): %+v", tr1)
	}

	seedBooks(t, d)
	tr2, err := d.Tick()
	if err != nil {
		t.Fatalf("tick 2: %v", err)
	}
	if !tr2.Degraded || !tr2.Greedy {
		t.Fatalf("tick 2 should escalate to greedy: %+v", tr2)
	}
	if tr2.Grants != 1 || tr2.Welfare <= 0 {
		t.Fatalf("greedy fallback should serve this tick's bid: %+v", tr2)
	}
	st := d.Stats()
	if st.Totals.DegradedSlots != 2 || st.ConsecutiveOverruns != 2 {
		t.Fatalf("stats after escalation: %+v", st)
	}
}

// TestAdmissionControl: bounded books shed fresh submissions with
// ErrOverloaded; replacements always land; a tick drains and re-opens.
func TestAdmissionControl(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01, MaxPendingBids: 2, MaxPendingOffers: 1})
	for p := isp.PeerID(1); p <= 4; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatalf("Join(%d): %v", p, err)
		}
	}
	if err := d.Offer(1, 1); err != nil {
		t.Fatalf("first offer: %v", err)
	}
	if err := d.Offer(2, 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second offer should shed, got %v", err)
	}
	cand := []sched.Candidate{{Peer: 1, Cost: 0.1}}
	err := d.Bid(2, []BidRequest{
		{Chunk: chunk(0, 0), Value: 1, Candidates: cand},
		{Chunk: chunk(0, 1), Value: 1, Candidates: cand},
	})
	if err != nil {
		t.Fatalf("bid filling the book: %v", err)
	}
	if err := d.Bid(3, []BidRequest{{Chunk: chunk(0, 2), Value: 1, Candidates: cand}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflowing bid should shed, got %v", err)
	}
	// Replacing an existing chunk bid adds no book entries and must not shed.
	if err := d.Bid(2, []BidRequest{{Chunk: chunk(0, 0), Value: 2, Candidates: cand}}); err != nil {
		t.Fatalf("replacement bid shed: %v", err)
	}
	if got := d.Stats().Totals.ShedRequests; got != 2 {
		t.Fatalf("ShedRequests = %d, want 2", got)
	}
	if _, err := d.Tick(); err != nil {
		t.Fatalf("tick: %v", err)
	}
	if err := d.Offer(2, 1); err != nil {
		t.Fatalf("offer after drain should land: %v", err)
	}
}

// TestShedHTTP429: over the wire, a shed submission answers 429 with a
// Retry-After hint.
func TestShedHTTP429(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01, MaxPendingOffers: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for p := int64(1); p <= 2; p++ {
		if resp := post("/v1/join", JoinRequest{Peer: p}); resp.StatusCode != http.StatusOK {
			t.Fatalf("join %d: %d", p, resp.StatusCode)
		}
	}
	if resp := post("/v1/offer", OfferRequest{Peer: 1, Capacity: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first offer: %d", resp.StatusCode)
	}
	resp := post("/v1/offer", OfferRequest{Peer: 2, Capacity: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed offer status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
}

// TestKillPointAndPeriodicSnapshot: KillAfterTicks trips the kill channel
// after the snapshot for that tick is on disk, so a restore lands exactly at
// the kill tick.
func TestKillPointAndPeriodicSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	d := manual(t, Options{
		Epsilon:       0.01,
		SnapshotPath:  path,
		SnapshotEvery: 1,
		Fault:         fault.Spec{KillAfterTicks: 2},
	})
	seedBooks(t, d)
	if _, err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.KillPoint():
		t.Fatal("kill point tripped one tick early")
	default:
	}
	if _, err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.KillPoint():
	default:
		t.Fatal("kill point did not trip at tick 2")
	}
	// SIGKILL-equivalent: no Drain. A fresh daemon restores the periodic
	// snapshot written just before the kill point.
	d.Close()
	d2 := manual(t, Options{Epsilon: 0.01, SnapshotPath: path})
	st := d2.Stats()
	if st.Slot != 2 || st.Peers != 2 {
		t.Fatalf("restored daemon at slot %d with %d peers, want slot 2 with 2 peers", st.Slot, st.Peers)
	}
}

// TestDegradationOptionValidation: the new knobs reject nonsense.
func TestDegradationOptionValidation(t *testing.T) {
	bad := []Options{
		{Epsilon: 0.01, SolveDeadline: -time.Second},
		{Epsilon: 0.01, GreedyAfter: -1},
		{Epsilon: 0.01, MaxPendingBids: -1},
		{Epsilon: 0.01, MaxPendingOffers: -1},
		{Epsilon: 0.01, SnapshotEvery: -1},
		{Epsilon: 0.01, Fault: fault.Spec{CrashProb: 2}},
	}
	for i, opts := range bad {
		if _, err := New(opts); err == nil {
			t.Errorf("case %d: New accepted invalid options %+v", i, opts)
		}
	}
}
