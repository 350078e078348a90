package service

// degrade_test.go: the degradation policy under injected faults — ticks
// whose solve the deadline stops and that publish a certified gap, clean
// ticks between them, admission-control shedding (API + HTTP 429), and the
// kill-point / periodic-snapshot plumbing the crash-recovery drill uses.

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
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

// priceRecorder keeps the full price vector of the last solve it passes
// through: the daemon publishes a price only beside a grant.
type priceRecorder struct {
	inner  sched.Scheduler
	prices map[isp.PeerID]float64
}

func (r *priceRecorder) Name() string { return r.inner.Name() }

func (r *priceRecorder) Schedule(in *sched.Instance) (*sched.Result, error) {
	res, err := r.inner.Schedule(in)
	if err == nil {
		r.prices = res.Prices
	}
	return res, err
}

// TestDeadlineTicksPublishCertifiedGap replays a contended trace through a
// daemon whose every second solve sleeps past the solve deadline, once on
// the monolithic auction and once sharded, so drilled and clean ticks
// alternate. On every tick the published gap must equal Σ λ_u·B(u) +
// Σ_r max(0, max_k(v − c_k − λ_{u_k})) − W, recomputed from the booked
// instance, the solve's prices and the published grants, which must be
// feasible. A clean tick is not degraded, is within n·ε of optimal and
// grants what a fresh sched.Auction grants. A drilled tick is degraded,
// serves this tick's own bids, counts once in degraded_slots_total, and
// leaves no goroutine behind.
func TestDeadlineTicksPublishCertifiedGap(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		name := map[bool]string{false: "monolithic", true: "sharded"}[sharded]
		t.Run(name, func(t *testing.T) { deadlineTrace(t, sharded) })
	}
}

func deadlineTrace(t *testing.T, sharded bool) {
	const (
		eps      = 0.01
		videos   = 3 // uploaders 3v+1..3v+3 serve video v: one swarm each
		bidders  = 24
		ticks    = 6
		tolScale = 1e-9
	)
	d := manual(t, Options{
		Epsilon:       eps,
		Sharded:       sharded,
		SolveDeadline: 200 * time.Millisecond,
		Fault:         fault.Spec{SolveDelay: 250 * time.Millisecond, SolveDelayEveryN: 2},
	})
	rec := &priceRecorder{inner: d.sched}
	d.sched = rec
	for p := isp.PeerID(1); p <= 3*videos; p++ {
		if err := d.Join(p, isp.ID(p%2)); err != nil {
			t.Fatal(err)
		}
	}
	for p := isp.PeerID(101); p < 101+bidders; p++ {
		if err := d.Join(p, isp.ID(p%2)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(32))
	drilled := 0
	for tick := 0; tick < ticks; tick++ {
		var m bookModel
		for p := isp.PeerID(1); p <= 3*videos; p++ {
			c := 1 + rng.Intn(2)
			if err := d.Offer(p, c); err != nil {
				t.Fatal(err)
			}
			m.offer(p, c)
		}
		for p := isp.PeerID(101); p < 101+bidders; p++ {
			v := rng.Intn(videos)
			var batch []BidRequest
			for _, i := range rng.Perm(6)[:2] {
				r := BidRequest{Chunk: chunk(v, i), Value: 0.5 + 2*rng.Float64()}
				for _, u := range rng.Perm(3)[:1+rng.Intn(3)] {
					r.Candidates = append(r.Candidates,
						sched.Candidate{Peer: isp.PeerID(3*v + 1 + u), Cost: 0.4 * rng.Float64()})
				}
				batch = append(batch, r)
			}
			if err := d.Bid(p, batch); err != nil {
				t.Fatal(err)
			}
			for _, r := range batch {
				m.bid(p, r)
			}
		}
		in, _ := m.drain(t)

		goroutines := runtime.NumGoroutine()
		tr, err := d.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Fatalf("tick %d left %d goroutines running past its return", tick, n-goroutines)
		}

		// The published grants, as grants over the booked instance.
		index := map[bidKey]int{}
		for i, r := range in.Requests {
			index[bidKey{peer: r.Peer, chunk: r.Chunk}] = i
		}
		var grants []sched.Grant
		for p := isp.PeerID(101); p < 101+bidders; p++ {
			_, gs := d.Grants(p)
			for _, g := range gs {
				i, ok := index[bidKey{peer: p, chunk: g.Chunk}]
				if !ok {
					t.Fatalf("tick %d: peer %d granted unbooked chunk %v", tick, p, g.Chunk)
				}
				if g.Price != rec.prices[g.Uploader] {
					t.Fatalf("tick %d: grant priced %v, uploader %d's λ is %v", tick, g.Price, g.Uploader, rec.prices[g.Uploader])
				}
				grants = append(grants, sched.Grant{Request: i, Uploader: g.Uploader})
			}
		}
		if err := in.Validate(grants); err != nil {
			t.Fatalf("tick %d: published grants infeasible: %v", tick, err)
		}
		welfare, err := in.Welfare(grants)
		if err != nil {
			t.Fatal(err)
		}
		dual := 0.0
		for _, u := range in.Uploaders {
			dual += rec.prices[u.Peer] * float64(u.Capacity)
		}
		for _, r := range in.Requests {
			eta := 0.0
			for _, c := range r.Candidates {
				eta = max(eta, r.Value-c.Cost-rec.prices[c.Peer])
			}
			dual += eta
		}
		tol := tolScale * max(1, dual)
		if math.Abs(tr.Welfare-welfare) > tol || math.Abs(tr.Gap-(dual-welfare)) > tol {
			t.Fatalf("tick %d: published welfare %v gap %v; recomputed welfare %v gap %v",
				tick, tr.Welfare, tr.Gap, welfare, dual-welfare)
		}
		gauge := parseExposition(t, scrapeMetrics(t, d))["schedulerd_slot_duality_gap"]
		if got := gauge.samples["schedulerd_slot_duality_gap"]; got != tr.Gap {
			t.Fatalf("tick %d: gap gauge %v, tick published %v", tick, got, tr.Gap)
		}
		if sharded && tr.Shards < 2 {
			t.Fatalf("tick %d: %d shards; the trace should split by video", tick, tr.Shards)
		}

		st := d.Stats()
		if tick%2 == 1 { // fault.Slow fires on every second solve
			drilled++
			if !tr.Degraded || tr.Grants == 0 {
				t.Fatalf("drilled tick %d should be degraded and serve its own bids: %+v", tick, tr)
			}
		} else {
			if tr.Degraded || tr.Gap > float64(len(in.Requests))*eps+tol {
				t.Fatalf("clean tick %d: degraded %v, gap %v > n·ε = %v",
					tick, tr.Degraded, tr.Gap, float64(len(in.Requests))*eps)
			}
			want, err := (&sched.Auction{Epsilon: eps}).Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(grantMap(in, grants), grantMap(in, want.Grants)) {
				t.Fatalf("clean tick %d: daemon grants differ from a fresh auction's", tick)
			}
		}
		degraded := parseExposition(t, scrapeMetrics(t, d))["schedulerd_degraded_slots_total"]
		if st.Totals.DegradedSlots != int64(drilled) ||
			degraded.samples["schedulerd_degraded_slots_total"] != float64(drilled) {
			t.Fatalf("tick %d: %d degraded slots, %v on /metrics; want %d",
				tick, st.Totals.DegradedSlots, degraded.samples["schedulerd_degraded_slots_total"], drilled)
		}
	}
}

// grantMap keys grants by (peer, chunk), so grant sets compare regardless
// of their order.
func grantMap(in *sched.Instance, grants []sched.Grant) map[bidKey]isp.PeerID {
	out := make(map[bidKey]isp.PeerID, len(grants))
	for _, g := range grants {
		r := &in.Requests[g.Request]
		out[bidKey{peer: r.Peer, chunk: r.Chunk}] = g.Uploader
	}
	return out
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
