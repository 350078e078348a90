package service

// cold_test.go: every tick is one cold auction over its own book, and the
// book keeps bid candidates in one arena. TestDaemonTickEqualsColdAuction
// replays a contended trace against a model of the book and a fresh
// sched.Auction; the arena test pins re-bid window reuse;
// TestBuilderInstanceEqualsNewInstance holds the kept sched.Builder's
// instances to sched.NewInstance over the model's books, and
// TestGrantBookAcrossLeave pins the grant book across leaves.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

// bookModel mirrors the daemon's book semantics in the plainest form: rows
// in submission order, a re-bid or re-offer replaces its row in place, and a
// leave tombstones the peer's rows.
type bookModel struct {
	ups  []sched.Uploader // Capacity -1 = the peer left
	reqs []sched.Request  // Peer -1 = the bidder left
}

func (m *bookModel) offer(p isp.PeerID, capacity int) {
	for i := range m.ups {
		if m.ups[i].Peer == p && m.ups[i].Capacity > 0 {
			m.ups[i].Capacity = capacity
			return
		}
	}
	m.ups = append(m.ups, sched.Uploader{Peer: p, Capacity: capacity})
}

func (m *bookModel) bid(p isp.PeerID, r BidRequest) {
	req := sched.Request{Peer: p, Chunk: r.Chunk, Value: r.Value, Deadline: r.Deadline,
		Candidates: slices.Clone(r.Candidates)}
	for i := range m.reqs {
		if m.reqs[i].Peer == p && m.reqs[i].Chunk == r.Chunk {
			m.reqs[i] = req
			return
		}
	}
	m.reqs = append(m.reqs, req)
}

func (m *bookModel) leave(p isp.PeerID) {
	for i := range m.ups {
		if m.ups[i].Peer == p {
			m.ups[i].Capacity = -1
		}
	}
	for i := range m.reqs {
		if m.reqs[i].Peer == p {
			m.reqs[i].Peer = -1
		}
	}
}

// drain returns the tick's instance and rejected count, and empties the book.
func (m *bookModel) drain(t *testing.T) (*sched.Instance, int) {
	t.Helper()
	var ups []sched.Uploader
	offered := map[isp.PeerID]bool{}
	for _, u := range m.ups {
		if u.Capacity > 0 {
			ups = append(ups, u)
			offered[u.Peer] = true
		}
	}
	var reqs []sched.Request
	rejected := 0
	for _, r := range m.reqs {
		if r.Peer < 0 {
			continue
		}
		var keep []sched.Candidate
		for _, c := range r.Candidates {
			if offered[c.Peer] {
				keep = append(keep, c)
			}
		}
		if len(keep) == 0 {
			rejected++
			continue
		}
		r.Candidates = keep
		reqs = append(reqs, r)
	}
	m.ups, m.reqs = nil, nil
	in, err := sched.NewInstance(reqs, ups)
	if err != nil {
		t.Fatalf("model instance: %v", err)
	}
	return in, rejected
}

// TestDaemonTickEqualsColdAuction drives a contended trace (demand about six
// times capacity, re-bids that grow and shrink candidate lists, leaves of
// uploaders and bidders) through Tick. Every tick's grants and published
// prices must be bit-equal to a fresh sched.Auction on the same instance: a
// solver that carried λ across ticks would publish different prices.
func TestDaemonTickEqualsColdAuction(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	rng := rand.New(rand.NewSource(30))
	const (
		uploaders = 6  // peers 1..6
		bidders   = 30 // peers 11..40
		ticks     = 8
	)
	for p := isp.PeerID(1); p <= uploaders; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	for p := isp.PeerID(11); p < 11+bidders; p++ {
		if err := d.Join(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	randomBid := func(c video.ChunkID) BidRequest {
		n := 1 + rng.Intn(uploaders)
		r := BidRequest{Chunk: c, Value: 0.5 + 2*rng.Float64(), Deadline: float64(rng.Intn(4))}
		for _, u := range rng.Perm(uploaders)[:n] {
			r.Candidates = append(r.Candidates, sched.Candidate{Peer: isp.PeerID(1 + u), Cost: 0.5 * rng.Float64()})
		}
		return r
	}
	var m bookModel
	var left []isp.PeerID
	totalGrants := 0
	for tick := 0; tick < ticks; tick++ {
		for _, p := range left {
			if err := d.Join(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		left = left[:0]
		capacity := 0
		for p := isp.PeerID(1); p <= uploaders; p++ {
			c := 1 + rng.Intn(2)
			capacity += c
			if err := d.Offer(p, c); err != nil {
				t.Fatal(err)
			}
			m.offer(p, c)
		}
		booked := map[isp.PeerID][]video.ChunkID{}
		demand := 0
		for p := isp.PeerID(11); p < 11+bidders; p++ {
			var batch []BidRequest
			for _, i := range rng.Perm(8)[:2] {
				batch = append(batch, randomBid(chunk(rng.Intn(3), i)))
			}
			if batch[0].Chunk == batch[1].Chunk {
				batch = batch[:1]
			}
			if err := d.Bid(p, batch); err != nil {
				t.Fatal(err)
			}
			for _, r := range batch {
				m.bid(p, r)
				booked[p] = append(booked[p], r.Chunk)
			}
			demand += len(batch)
		}
		if demand < 5*capacity {
			t.Fatalf("tick %d: demand %d is not contended against capacity %d", tick, demand, capacity)
		}
		// Re-bids for booked keys, with fresh values and list lengths.
		for range 10 {
			p := isp.PeerID(11 + rng.Intn(bidders))
			r := randomBid(booked[p][rng.Intn(len(booked[p]))])
			if err := d.Bid(p, []BidRequest{r}); err != nil {
				t.Fatal(err)
			}
			m.bid(p, r)
		}
		// One uploader re-offers, one uploader and two bidders leave.
		if err := d.Offer(isp.PeerID(1+tick%uploaders), 3); err != nil {
			t.Fatal(err)
		}
		m.offer(isp.PeerID(1+tick%uploaders), 3)
		left = append(left, isp.PeerID(1+(tick+3)%uploaders), isp.PeerID(11+rng.Intn(bidders/2)),
			isp.PeerID(11+bidders/2+rng.Intn(bidders/2)))
		for _, p := range left {
			if err := d.Leave(p); err != nil {
				t.Fatal(err)
			}
			m.leave(p)
		}

		in, rejected := m.drain(t)
		want, err := (&sched.Auction{Epsilon: 0.01}).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		welfare, err := in.Welfare(want.Grants)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := d.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if tr.Requests != len(in.Requests) || tr.Uploaders != len(in.Uploaders) ||
			tr.Rejected != rejected || tr.Grants != len(want.Grants) || tr.Welfare != welfare {
			t.Fatalf("tick %d: daemon %+v; cold auction %d requests, %d uploaders, %d rejected, %d grants, welfare %v",
				tick, tr, len(in.Requests), len(in.Uploaders), rejected, len(want.Grants), welfare)
		}
		wantGrants := map[isp.PeerID][]Grant{}
		for _, g := range want.Grants {
			r := &in.Requests[g.Request]
			wantGrants[r.Peer] = append(wantGrants[r.Peer],
				Grant{Chunk: r.Chunk, Uploader: g.Uploader, Price: want.Prices[g.Uploader]})
		}
		for p := isp.PeerID(11); p < 11+bidders; p++ {
			if _, got := d.Grants(p); !slices.Equal(got, wantGrants[p]) {
				t.Fatalf("tick %d: peer %d granted %+v, cold auction %+v", tick, p, got, wantGrants[p])
			}
		}
		totalGrants += tr.Grants
	}
	if totalGrants == 0 {
		t.Fatal("trivial trace: no grants")
	}
}

// TestRebidReusesKeyWindow books one key again and again between ticks with
// candidate lists that grow and shrink: the arena stays at the key's longest
// list, and the tick solves the last bid only.
func TestRebidReusesKeyWindow(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	for p := isp.PeerID(1); p <= 7; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatal(err)
		}
		if p <= 6 {
			if err := d.Offer(p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Uploader 1 is the cheapest in every list but the last, so a grant
	// from it would mean a stale candidate survived the re-bids.
	list := func(n int, first isp.PeerID) []sched.Candidate {
		var cs []sched.Candidate
		for p := first; len(cs) < n; p++ {
			cs = append(cs, sched.Candidate{Peer: p, Cost: 0.1 * float64(p)})
		}
		return cs
	}
	longest := 0
	for i, n := range []int{3, 5, 2, 6, 4, 1, 6, 2} {
		first := isp.PeerID(1)
		if i == 7 {
			first = 4
		}
		if err := d.Bid(7, []BidRequest{{Chunk: chunk(0, 0), Value: 2, Candidates: list(n, first)}}); err != nil {
			t.Fatal(err)
		}
		longest = max(longest, n)
		if len(d.cands) != longest {
			t.Fatalf("re-bid %d (%d candidates): arena holds %d, want the longest list %d", i, n, len(d.cands), longest)
		}
	}
	if st := d.Stats(); st.PendingBids != 1 {
		t.Fatalf("%d bids booked, want 1", st.PendingBids)
	}
	tr, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	last := list(2, 4)
	if _, gs := d.Grants(7); tr.Grants != 1 || len(gs) != 1 || gs[0].Uploader != 4 || tr.Welfare != 2-last[0].Cost {
		t.Fatalf("tick solved a stale bid: %+v, grants %+v", tr, gs)
	}
	if len(d.cands) != 0 {
		t.Fatalf("drain left %d candidates in the arena", len(d.cands))
	}
}

// instanceProbe keeps the instance of the last solve it passes through; a
// Builder-produced instance stays valid until the daemon's next build.
type instanceProbe struct {
	inner sched.Scheduler
	in    *sched.Instance
}

func (p *instanceProbe) Name() string { return p.inner.Name() }

func (p *instanceProbe) Schedule(in *sched.Instance) (*sched.Result, error) {
	p.in = in
	return p.inner.Schedule(in)
}

// sameInstance compares two instances field by field, floats bit for bit,
// and every request's row table.
func sameInstance(got, want *sched.Instance) error {
	if !slices.Equal(got.Uploaders, want.Uploaders) {
		return fmt.Errorf("uploaders %v, want %v", got.Uploaders, want.Uploaders)
	}
	if len(got.Requests) != len(want.Requests) {
		return fmt.Errorf("%d requests, want %d", len(got.Requests), len(want.Requests))
	}
	bits := math.Float64bits
	for i, g := range got.Requests {
		w := want.Requests[i]
		if g.Peer != w.Peer || g.Chunk != w.Chunk || bits(g.Value) != bits(w.Value) ||
			bits(g.Deadline) != bits(w.Deadline) || !slices.Equal(g.Candidates, w.Candidates) {
			return fmt.Errorf("request %d: %+v, want %+v", i, g, w)
		}
		if !slices.Equal(got.Rows(i), want.Rows(i)) {
			return fmt.Errorf("request %d: rows %v, want %v", i, got.Rows(i), want.Rows(i))
		}
	}
	return nil
}

// TestBuilderInstanceEqualsNewInstance drives a seeded churny book through
// the daemon and, every tick, holds the instance its kept sched.Builder
// built to sched.NewInstance over the same filtered books (bookModel): the
// same requests, candidates, uploaders and rows, and the same rejected
// count. Every tick an uploader leaves, re-joins and re-offers, a bid loses
// every candidate to a leave, and a re-bid shrinks its candidate list.
func TestBuilderInstanceEqualsNewInstance(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	probe := &instanceProbe{inner: d.sched}
	d.sched = probe
	rng := rand.New(rand.NewSource(43))
	const (
		uploaders = 8  // peers 1..8; 9 joins but never offers
		bidders   = 24 // peers 11..34
		ticks     = 12
	)
	for p := isp.PeerID(1); p <= 9; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	for p := isp.PeerID(11); p < 11+bidders; p++ {
		if err := d.Join(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	randomBid := func(c video.ChunkID, n int) BidRequest {
		r := BidRequest{Chunk: c, Value: 0.5 + 2*rng.Float64(), Deadline: float64(rng.Intn(4))}
		for _, u := range rng.Perm(9)[:n] {
			r.Candidates = append(r.Candidates, sched.Candidate{Peer: isp.PeerID(1 + u), Cost: 0.5 * rng.Float64()})
		}
		return r
	}
	var m bookModel
	var left []isp.PeerID
	rejectedTotal := 0
	for tick := 0; tick < ticks; tick++ {
		for _, p := range left {
			if err := d.Join(p, 0); err != nil {
				t.Fatal(err)
			}
		}
		left = left[:0]
		for p := isp.PeerID(1); p <= uploaders; p++ {
			if rng.Intn(5) == 0 {
				continue // no offer this tick
			}
			c := 1 + rng.Intn(3)
			if err := d.Offer(p, c); err != nil {
				t.Fatal(err)
			}
			m.offer(p, c)
		}
		bid := func(p isp.PeerID, r BidRequest) {
			t.Helper()
			if err := d.Bid(p, []BidRequest{r}); err != nil {
				t.Fatal(err)
			}
			m.bid(p, r)
		}
		for p := isp.PeerID(11); p < 11+bidders; p++ {
			for _, i := range rng.Perm(6)[:1+rng.Intn(3)] {
				bid(p, randomBid(chunk(rng.Intn(2), i), 1+rng.Intn(6)))
			}
		}
		// A re-bid that shrinks its list: bidder 11's chunk (5, 0), first
		// with five candidates, then with the first two of them.
		long := randomBid(chunk(5, 0), 5)
		bid(11, long)
		short := long
		short.Candidates = slices.Clone(long.Candidates[:2])
		short.Value++
		bid(11, short)
		// A bid whose every candidate leaves below.
		gone := isp.PeerID(1 + tick%uploaders)
		bid(12, BidRequest{Chunk: chunk(6, tick), Value: 2, Candidates: []sched.Candidate{{Peer: gone, Cost: 0.1}}})
		// An uploader leaves, re-joins and re-offers within the tick.
		back := isp.PeerID(1 + (tick+4)%uploaders)
		if err := d.Leave(back); err != nil {
			t.Fatal(err)
		}
		m.leave(back)
		if err := d.Join(back, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.Offer(back, 2); err != nil {
			t.Fatal(err)
		}
		m.offer(back, 2)
		left = append(left, gone, isp.PeerID(13+rng.Intn(bidders-2)))
		for _, p := range left {
			if err := d.Leave(p); err != nil {
				t.Fatal(err)
			}
			m.leave(p)
		}

		want, rejected := m.drain(t)
		tr, err := d.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if err := sameInstance(probe.in, want); err != nil {
			t.Fatalf("tick %d: builder instance differs from sched.NewInstance's: %v", tick, err)
		}
		if tr.Rejected != rejected || tr.Requests != len(want.Requests) || tr.Uploaders != len(want.Uploaders) {
			t.Fatalf("tick %d: %+v; model %d requests, %d uploaders, %d rejected",
				tick, tr, len(want.Requests), len(want.Uploaders), rejected)
		}
		if rejected == 0 {
			t.Fatalf("tick %d: the starved bid was not rejected", tick)
		}
		rejectedTotal += rejected
	}
	t.Logf("%d ticks, %d bids rejected", ticks, rejectedTotal)
}

// TestGrantBookAcrossLeave pins the grant book's two leave rules: a peer
// that leaves and re-joins before the next tick polls no grants, and the
// snapshot's Prices list exactly the uploaders that granted to peers still
// present.
func TestGrantBookAcrossLeave(t *testing.T) {
	d, srv := apiServer(t)
	for p := isp.PeerID(1); p <= 4; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Uploader 1 serves peer 3 and uploader 2 serves peer 4, each alone.
	for u := isp.PeerID(1); u <= 2; u++ {
		if err := d.Offer(u, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.Bid(u+2, []BidRequest{{Chunk: chunk(0, int(u)), Value: 2,
			Candidates: []sched.Candidate{{Peer: u, Cost: 0.25}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if tr, err := d.Tick(); err != nil || tr.Grants != 2 {
		t.Fatalf("tick: %+v, %v; want 2 grants", tr, err)
	}
	prices := func() []int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		var out []int64
		for _, p := range d.snapshotLocked().Prices {
			out = append(out, p.Peer)
		}
		return out
	}
	poll := func(p int) string {
		resp, err := http.Get(fmt.Sprintf("%s/v1/grants?peer=%d", srv.URL, p))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if got := prices(); !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("snapshot prices for uploaders %v, want [1 2]", got)
	}
	if err := d.Leave(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Join(3, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := poll(3), "{\"slot\":0,\"grants\":[]}\n"; got != want {
		t.Fatalf("re-joined peer polls %q, want %q", got, want)
	}
	if got, want := poll(4), "{\"slot\":0,\"grants\":[{\"video\":0,\"chunk\":2,\"uploader\":2,\"price\":"; !strings.HasPrefix(got, want) {
		t.Fatalf("peer 4 polls %q, want its grant from uploader 2", got)
	}
	if got := prices(); !slices.Equal(got, []int64{2}) {
		t.Fatalf("snapshot prices for uploaders %v after peer 3 left, want [2]", got)
	}
}
