package service

// wire_test.go: the fast paths against encoding/json, their referee.
// FuzzBidBody and FuzzVerbBody hold the two to one contract — whatever a
// fast path accepts, encoding/json accepts with the same values, bit for
// bit — and FuzzBidBody's committed corpus (testdata/fuzz/FuzzBidBody)
// rides along in plain `go test` runs. TestMarshalledBidsTakeFastPath and
// TestMarshalledVerbsTakeFastPath pin the other side: the bodies real
// clients send must not drift off the fast path. TestGrantsBodyMatchesEncoder
// holds the grants writer to json.Encoder byte for byte, and the *Allocs
// tests pin every per-tick verb at zero allocations.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/isp"
	"repro/internal/sched"
)

// sameBids compares a fast-path decode with encoding/json's, floats bit for
// bit, and checks each candidate list is a capped window.
func sameBids(peer int64, got []BidRequest, want *BidBatch) error {
	if peer != want.Peer {
		return fmt.Errorf("peer %d, encoding/json %d", peer, want.Peer)
	}
	ref := want.requests()
	if len(got) != len(ref) {
		return fmt.Errorf("%d bids, encoding/json %d", len(got), len(ref))
	}
	bits := math.Float64bits
	for i, g := range got {
		w := ref[i]
		if g.Chunk != w.Chunk || bits(g.Value) != bits(w.Value) || bits(g.Deadline) != bits(w.Deadline) ||
			len(g.Candidates) != len(w.Candidates) {
			return fmt.Errorf("bid %d: %+v, encoding/json %+v", i, g, w)
		}
		if cap(g.Candidates) != len(g.Candidates) {
			return fmt.Errorf("bid %d: candidate window len %d cap %d", i, len(g.Candidates), cap(g.Candidates))
		}
		for j, c := range g.Candidates {
			if wc := w.Candidates[j]; c.Peer != wc.Peer || bits(c.Cost) != bits(wc.Cost) {
				return fmt.Errorf("bid %d candidate %d: %+v, encoding/json %+v", i, j, c, wc)
			}
		}
	}
	return nil
}

func FuzzBidBody(f *testing.F) {
	warm := []byte(`{"peer":9,"bids":[{"video":1,"chunk":2,"value":3,"candidates":[{"peer":4,"cost":0.5},{"peer":5,"cost":1}]}]}`)
	f.Add(warm)
	f.Fuzz(func(t *testing.T, body []byte) {
		// A scratch that held another batch first: decode must not leak it.
		var in ingest
		if _, _, ok := in.decode(warm); !ok {
			t.Fatal("fast path declined the warm-up body")
		}
		peer, reqs, ok := in.decode(body)
		if !ok {
			return // declined: encoding/json decides
		}
		var want BidBatch
		if err := decodeBody(body, &want); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json refused it: %v", body, err)
		}
		if err := sameBids(peer, reqs, &want); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	})
}

// randomFloat draws integers, fractions, exponent-form magnitudes (large,
// tiny and subnormal), -0 and the smallest subnormal, with either sign.
func randomFloat(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(5) {
	case 0:
		v = float64(rng.Intn(100))
	case 1:
		v = rng.Float64()
	case 2:
		v = math.Ldexp(rng.Float64(), rng.Intn(2100)-1080)
	case 3:
		v = 0
	default:
		v = math.SmallestNonzeroFloat64
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func randomBatch(rng *rand.Rand) BidBatch {
	b := BidBatch{Peer: rng.Int63() - rng.Int63(), Bids: make([]WireBid, rng.Intn(5))}
	for i := range b.Bids {
		wb := WireBid{Video: int32(rng.Uint32()), Chunk: int32(rng.Uint32()), Value: randomFloat(rng)}
		if rng.Intn(2) == 0 {
			wb.Deadline = randomFloat(rng) // else 0, which omitempty leaves out
		}
		n := rng.Intn(8)
		switch rng.Intn(4) {
		case 0:
			n = 0
		case 1:
			n = 64
		}
		wb.Candidates = make([]WireCandidate, 0, n) // not nil, which marshals as null
		for j := 0; j < n; j++ {
			wb.Candidates = append(wb.Candidates, WireCandidate{Peer: rng.Int63() - rng.Int63(), Cost: randomFloat(rng)})
		}
		b.Bids[i] = wb
	}
	return b
}

// TestMarshalledBidsTakeFastPath pins that json.Marshal's output — what
// internal/loadtest's client and perfbench send — takes the fast path, in
// both key orders (the client marshals a map, so "bids" comes first).
func TestMarshalledBidsTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var in ingest
	exponents := 0
	for i := 0; i < 1000; i++ {
		b := randomBatch(rng)
		var body any = b
		if i%2 == 1 {
			body = map[string]any{"peer": b.Peer, "bids": b.Bids}
		}
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("e-")) || bytes.Contains(data, []byte("e+")) {
			exponents++
		}
		peer, reqs, ok := in.decode(data)
		if !ok {
			t.Fatalf("fast path declined json.Marshal output %s", data)
		}
		var want BidBatch
		if err := decodeBody(data, &want); err != nil {
			t.Fatal(err)
		}
		if err := sameBids(peer, reqs, &want); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
	}
	if exponents == 0 {
		t.Fatal("no batch marshalled an exponent-form float")
	}
}

// discardWriter is a reusable http.ResponseWriter.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(s int)           { w.status = s }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// handlerAllocs serves one prepared call through h again and again and
// returns testing.AllocsPerRun's count per call. The body, when non-nil, is
// replayed from a reused reader.
func handlerAllocs(t *testing.T, h http.Handler, method, target string, body []byte) float64 {
	t.Helper()
	var rd bytes.Reader
	req := httptest.NewRequest(method, target, nil)
	if body != nil {
		req.Body = io.NopCloser(&rd)
		req.ContentLength = int64(len(body))
	}
	w := &discardWriter{hdr: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		clear(w.hdr)
		w.status = 0
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, target, w.status)
	}
	t.Logf("%s %s: %.1f allocations", method, target, allocs)
	return allocs
}

// maxBidHandlerAllocs pins one 4-bid × 6-candidate POST /v1/bid through
// Handler(). A re-bid books into its key's window of the candidate arena,
// and the body limiter lives in the pooled ingest; http.MaxBytesReader took
// one allocation, a fresh slice per candidate list four more, decoding with
// encoding/json 46, and a fresh Content-Type slice per answer one more.
const maxBidHandlerAllocs = 0

func TestBidHandlerAllocs(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	batch := BidBatch{Peer: 100}
	for p := 1; p <= 6; p++ {
		if err := d.Join(isp.PeerID(p), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Join(100, 1); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		wb := WireBid{Video: 1, Chunk: int32(c), Value: 2.5, Deadline: 3}
		for p := 1; p <= 6; p++ {
			wb.Candidates = append(wb.Candidates, WireCandidate{Peer: int64(p), Cost: 0.125 * float64(p)})
		}
		batch.Bids = append(batch.Bids, wb)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	allocs := handlerAllocs(t, d.Handler(), http.MethodPost, "/v1/bid", body)
	if st := d.Stats(); st.PendingBids != 4 {
		t.Fatalf("%d bids booked, want 4", st.PendingBids)
	}
	if allocs > maxBidHandlerAllocs {
		t.Fatalf("POST /v1/bid allocates %.1f, pinned at %d", allocs, maxBidHandlerAllocs)
	}
}

// TestOfferHandlerAllocs pins a re-offer through Handler() at zero
// allocations: encoding/json took 8 and http.MaxBytesReader one.
func TestOfferHandlerAllocs(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	if err := d.Join(1, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := handlerAllocs(t, d.Handler(), http.MethodPost, "/v1/offer", []byte(`{"peer":1,"capacity":3}`)); allocs > 0 {
		t.Fatalf("POST /v1/offer allocates %.1f, pinned at 0", allocs)
	}
	if st := d.Stats(); st.PendingOffers != 1 {
		t.Fatalf("%d offers booked, want 1", st.PendingOffers)
	}
}

// TestJoinLeaveHandlerAllocs pins a leave and a re-join of the same peer
// through Handler() at zero allocations, where each took 9 with
// encoding/json and http.MaxBytesReader.
func TestJoinLeaveHandlerAllocs(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	if err := d.Join(7, 2); err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	w := &discardWriter{hdr: http.Header{}}
	calls := []struct {
		req  *http.Request
		rd   bytes.Reader
		body []byte
	}{{body: []byte(`{"peer":7}`)}, {body: []byte(`{"peer":7,"isp":2}`)}}
	for i, verb := range []string{"/v1/leave", "/v1/join"} {
		c := &calls[i]
		c.req = httptest.NewRequest(http.MethodPost, verb, nil)
		c.req.Body, c.req.ContentLength = io.NopCloser(&c.rd), int64(len(c.body))
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := range calls {
			c := &calls[i]
			c.rd.Reset(c.body)
			clear(w.hdr)
			w.status = 0
			h.ServeHTTP(w, c.req)
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d", c.req.URL.Path, w.status)
			}
		}
	})
	t.Logf("POST /v1/leave + /v1/join: %.1f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("a leave and a re-join allocate %.1f, pinned at 0", allocs)
	}
	if st := d.Stats(); st.Peers != 1 || st.Totals.Joins != 202 || st.Totals.Leaves != 201 {
		t.Fatalf("stats after the loop: %+v", st)
	}
}

// TestGrantsHandlerAllocs pins a poll holding 3 grants at zero allocations:
// the answer is appended from the grant book into pooled bytes, where the
// copy of the peer's grants, the []WireGrant and the boxing of the answer
// took 3.
func TestGrantsHandlerAllocs(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	for p := isp.PeerID(1); p <= 4; p++ {
		if err := d.Join(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Offer(1, 3); err != nil {
		t.Fatal(err)
	}
	var reqs []BidRequest
	for c := 0; c < 3; c++ {
		reqs = append(reqs, BidRequest{Chunk: chunk(1, c), Value: 2, Candidates: []sched.Candidate{{Peer: 1, Cost: 0.5}}})
	}
	if err := d.Bid(4, reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, gs := d.Grants(4); len(gs) != 3 {
		t.Fatalf("peer 4 holds %d grants, want 3", len(gs))
	}
	if allocs := handlerAllocs(t, d.Handler(), http.MethodGet, "/v1/grants?peer=4", nil); allocs > 0 {
		t.Fatalf("GET /v1/grants allocates %.1f, pinned at 0", allocs)
	}
}

// TestDeclaredLengthPresizeCapped pins that a body's declared
// Content-Length pre-sizes its buffer only up to maxPooledBody: a client that
// declares 4 MiB and sends a few bytes, or none yet, must not make the daemon
// hold 4 MiB for the life of the connection.
func TestDeclaredLengthPresizeCapped(t *testing.T) {
	d := manual(t, Options{Epsilon: 0.01})
	h := d.Handler()
	w := &discardWriter{hdr: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range []struct{ verb, body string }{
		{"join", `{"peer":1,"isp":0}`},
		{"offer", `{"peer":1,"capacity":2}`},
		{"bid", `{"peer":1,"bids":[]}`},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/"+c.verb, strings.NewReader(c.body))
		req.ContentLength = maxBody
		clear(w.hdr)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s %s: status %d", c.verb, c.body, w.status)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBody/4 {
		t.Fatalf("3 short bodies declaring %d bytes allocated %d bytes", maxBody, got)
	}
}

// TestBidHandlerConcurrent posts bid batches from several goroutines at
// once through Handler(), alternating the fast path and encoding/json's, and
// checks every booked bid against what its sender posted: the pooled body
// buffers and scratch are shared across handlers.
func TestBidHandlerConcurrent(t *testing.T) {
	const senders, rounds, bids, cands = 8, 40, 3, 5
	d := manual(t, Options{Epsilon: 0.01})
	for p := 1; p <= senders+cands; p++ {
		if err := d.Join(isp.PeerID(p), 0); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(s, r int) BidBatch {
		b := BidBatch{Peer: int64(s)}
		for c := 0; c < bids; c++ {
			wb := WireBid{Video: int32(s), Chunk: int32(r*bids + c), Value: float64(s*1000 + r)}
			for k := 0; k < cands; k++ {
				cost := float64(s) + float64(r)/64 + float64(c*cands+k)/4096
				wb.Candidates = append(wb.Candidates, WireCandidate{Peer: int64(senders + 1 + k), Cost: cost})
			}
			b.Bids = append(b.Bids, wb)
		}
		return b
	}
	h := d.Handler()
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body, err := json.Marshal(batch(s, r))
				if err != nil {
					t.Error(err)
					return
				}
				if r%2 == 1 { // a key spelling the fast path declines
					body = bytes.Replace(body, []byte(`"peer"`), []byte(`"Peer"`), 1)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/bid", bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					t.Errorf("sender %d round %d: %d %s", s, r, w.Code, w.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.bids) != senders*rounds*bids {
		t.Fatalf("%d bids booked, want %d", len(d.bids), senders*rounds*bids)
	}
	for _, got := range d.bids {
		s, r, c := int(got.Chunk.Video), int(got.Chunk.Index)/bids, int(got.Chunk.Index)%bids
		b := batch(s, r)
		want := b.requests()[c]
		if got.Peer != isp.PeerID(s) || got.Value != want.Value || !slices.Equal(got.Candidates, want.Candidates) {
			t.Fatalf("booked %+v, sender %d posted %+v", got, s, want)
		}
	}
}

// TestBidBodyDeclines pins bodies the fast path hands to encoding/json, and
// that valid non-canonical spellings decode as their canonical one does.
func TestBidBodyDeclines(t *testing.T) {
	for _, body := range []string{
		``,
		`null`,
		"\xef\xbb\xbf{\"peer\":1}",
		`{"PEER":1}`,
		`{"pe\u0065r":1}`,
		`{"Bids":[]}`,
		`{"peer":1,"peer":2}`,
		`{"bids":null}`,
		`{"bids":[{"candidates":null}]}`,
		`{"bids":[{"video":1.0}]}`,
		`{"bids":[{"video":1e2}]}`,
		`{"bids":[{"chunk":2147483648}]}`,
		`{"bids":[{"candidates":[{"cost":1e400}]}]}`,
		`{"peer":01}`,
		`{"peer":1,}`,
		`{"bids":[{},]}`,
		`{"peer":"1"}`,
		`{"peer":1} x`,
		`{"peer":1}{}`,
		`{"extra":1}`,
	} {
		var in ingest
		if _, _, ok := in.decode([]byte(body)); ok {
			t.Errorf("fast path accepted %q", body)
		}
	}
	// Declined but valid: encoding/json gives the same answer as the
	// canonical spelling's.
	const canonical = `{"peer":7,"bids":[{"video":1,"chunk":2,"value":1,"candidates":[{"peer":3,"cost":0.5}]}]}`
	var in ingest
	peer, reqs, ok := in.decode([]byte(canonical))
	if !ok {
		t.Fatal("fast path declined the canonical spelling")
	}
	for _, body := range []string{
		`{"PEER":7,"Bids":[{"VIDEO":1,"chunk":2,"value":1,"candidates":[{"peer":3,"cost":0.5}]}]}`,
		`{"pe\u0065r":7,"bids":[{"video":1,"chunk":2,"value":1,"candidates":[{"peer":3,"cost":0.5}]}]}`,
		`{"peer":1,"peer":7,"bids":[{"video":1,"chunk":2,"value":1,"candidates":[{"peer":3,"cost":0.5}]}]}`,
	} {
		var got BidBatch
		if err := decodeBody([]byte(body), &got); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if err := sameBids(peer, reqs, &got); err != nil {
			t.Fatalf("%q: %v", body, err)
		}
	}
}

// verbFields decodes body with encoding/json as verb's wire type and
// returns its fields in the fast path's key order.
func verbFields(verb string, body []byte) ([2]int64, error) {
	switch verb {
	case "join":
		var j JoinRequest
		err := decodeBody(body, &j)
		return [2]int64{j.Peer, int64(j.ISP)}, err
	case "leave":
		var l LeaveRequest
		err := decodeBody(body, &l)
		return [2]int64{l.Peer}, err
	default:
		var o OfferRequest
		err := decodeBody(body, &o)
		return [2]int64{o.Peer, int64(o.Capacity)}, err
	}
}

var verbBodies = map[string]*verbBody{"join": &joinBody, "leave": &leaveBody, "offer": &offerBody}

func FuzzVerbBody(f *testing.F) {
	for _, seed := range []string{
		`{"peer":1,"isp":2}`,
		`{"isp":2,"peer":-1}`,
		`{"peer":1,"capacity":3}`,
		` { "peer" : 9 } `,
		`{"PEER":1,"isp":2}`,
		`{"peer":1,"Capacity":3}`,
		`{"peer":1,"peer":2}`,
		`{"peer":null}`,
		`null`,
		`{"peer":1.0}`,
		`{"capacity":1e3}`,
		`{"peer":9223372036854775808}`,
		`{"isp":-9223372036854775809}`,
		`{"peer":1} x`,
		`{"peer":1}{}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for verb, vb := range verbBodies {
			got, ok := vb.decode(body)
			if !ok {
				continue // declined: encoding/json decides
			}
			want, err := verbFields(verb, body)
			if err != nil {
				t.Fatalf("%s: fast path accepted %q, encoding/json refused it: %v", verb, body, err)
			}
			if got != want {
				t.Fatalf("%s %q: fast path %v, encoding/json %v", verb, body, got, want)
			}
		}
	})
}

// TestMarshalledVerbsTakeFastPath pins that json.Marshal's join, leave and
// offer bodies — what internal/loadtest's client sends — take the fast path
// and decode as encoding/json does.
func TestMarshalledVerbsTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		peer, n := rng.Int63()-rng.Int63(), int(rng.Int63()-rng.Int63())
		if i%3 == 0 {
			peer, n = int64(rng.Intn(1000)), rng.Intn(10)
		}
		for verb, wire := range map[string]any{
			"join":  JoinRequest{Peer: peer, ISP: n},
			"leave": LeaveRequest{Peer: peer},
			"offer": OfferRequest{Peer: peer, Capacity: n},
		} {
			data, err := json.Marshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := verbBodies[verb].decode(data)
			if !ok {
				t.Fatalf("%s: fast path declined json.Marshal output %s", verb, data)
			}
			if want, err := verbFields(verb, data); err != nil || got != want {
				t.Fatalf("%s %s: fast path %v, encoding/json %v (%v)", verb, data, got, want, err)
			}
		}
	}
}

// TestVerbBodyDeclines pins bodies the join/leave/offer fast path hands to
// encoding/json.
func TestVerbBodyDeclines(t *testing.T) {
	for _, body := range []string{
		``,
		`null`,
		`{"PEER":1}`,
		`{"peer":1,"peer":2}`,
		`{"peer":null}`,
		`{"peer":1.0}`,
		`{"peer":1e3}`,
		`{"peer":"1"}`,
		`{"peer":9223372036854775808}`,
		`{"peer":01}`,
		`{"peer":1,}`,
		`{"peer":1} x`,
		`{"peer":1}{}`,
		`{"capacity":1}`,
		`{"isp":1}`,
	} {
		if _, ok := leaveBody.decode([]byte(body)); ok {
			t.Errorf("leave fast path accepted %q", body)
		}
	}
	if _, ok := joinBody.decode([]byte(`{"peer":1,"capacity":2}`)); ok {
		t.Error("join fast path accepted an offer's key")
	}
	if _, ok := offerBody.decode([]byte(`{"peer":1,"isp":2}`)); ok {
		t.Error("offer fast path accepted a join's key")
	}
}

// TestGrantsBodyMatchesEncoder holds the grants writer to what
// json.NewEncoder(w).Encode writes for the same GrantsResponse, byte for
// byte, across encoding/json's float format boundaries and for an empty
// poll.
func TestGrantsBodyMatchesEncoder(t *testing.T) {
	prices := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-7, 9.99e-7, 1e-6, 1e20, 1e21,
		math.MaxFloat64, -0.5, -1e-7, -1e21, 0.1, 1.25, 123456789.125, 3e-10, 1e-300,
	}
	rng := rand.New(rand.NewSource(3))
	for range 200 {
		prices = append(prices, randomFloat(rng))
	}
	encode := func(slot int64, gs []Grant) []byte {
		resp := GrantsResponse{Slot: slot, Grants: make([]WireGrant, 0, len(gs))}
		for _, g := range gs {
			resp.Grants = append(resp.Grants, WireGrant{Video: int32(g.Chunk.Video), Chunk: int32(g.Chunk.Index),
				Uploader: int64(g.Uploader), Price: g.Price})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(slot int64, gs []Grant) {
		t.Helper()
		if got, want := appendGrantsBody(nil, slot, gs), encode(slot, gs); !bytes.Equal(got, want) {
			t.Fatalf("writer %q, json.Encoder %q", got, want)
		}
	}
	check(0, nil)
	check(math.MaxInt64, []Grant{})
	for i, p := range prices {
		check(int64(i), []Grant{{Chunk: chunk(i, 2*i), Uploader: isp.PeerID(i) - 5, Price: p}})
	}
	var gs []Grant
	for i := 0; i < len(prices); i += 7 {
		gs = append(gs, Grant{Chunk: chunk(-i, i), Uploader: isp.PeerID(i), Price: prices[i]})
	}
	check(-1, gs)
	// encoding/json refuses a non-finite price and writes nothing.
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		gs := []Grant{{Price: 1}, {Price: p}}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(GrantsResponse{Grants: []WireGrant{{Price: 1}, {Price: p}}}); err == nil {
			t.Fatalf("json.Encoder accepted price %v", p)
		}
		if got := appendGrantsBody([]byte("x"), 1, gs); string(got) != "x" || buf.Len() != 0 {
			t.Fatalf("price %v: writer appended %q, json.Encoder wrote %q", p, got[1:], buf.Bytes())
		}
	}
}

// TestTickBodyMatchesEncoder holds the tick answer's writer to what
// json.NewEncoder(w).Encode writes for the same TickResponse, byte for
// byte, across encoding/json's float format boundaries and with and
// without the degraded flag; and the answer to every other accepted POST
// to what it writes for struct{}{}.
func TestTickBodyMatchesEncoder(t *testing.T) {
	encode := func(v any) []byte {
		var buf bytes.Buffer
		_ = json.NewEncoder(&buf).Encode(v) // a refused value writes nothing
		return buf.Bytes()
	}
	if got, want := emptyBody, encode(struct{}{}); !bytes.Equal(got, want) {
		t.Fatalf("empty answer %q, json.Encoder %q", got, want)
	}
	floats := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-7, 9.99e-7, 1e-6, 1e20, 1e21,
		math.MaxFloat64, -0.5, 1253.0625, 0.001234}
	rng := rand.New(rand.NewSource(4))
	for i := range 300 {
		tr := TickResponse{
			Slot: rng.Int63() - rng.Int63(), Requests: rng.Intn(1 << 20), Uploaders: rng.Intn(1000),
			Grants: rng.Intn(1 << 20), Rejected: rng.Intn(100), Shards: rng.Intn(64),
			Welfare: floats[i%len(floats)], SolveMs: randomFloat(rng), Gap: randomFloat(rng),
			Degraded: i%3 == 0,
		}
		if got, want := appendTickBody(nil, &tr), encode(tr); !bytes.Equal(got, want) {
			t.Fatalf("writer %q, json.Encoder %q", got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tr := range []TickResponse{{Welfare: f}, {SolveMs: f}, {Gap: f, Degraded: true}} {
			if got, want := appendTickBody([]byte("x"), &tr), encode(tr); string(got) != "x" || len(want) != 0 {
				t.Fatalf("%+v: writer appended %q, json.Encoder wrote %q", tr, got[1:], want)
			}
		}
	}
}
