package service

// wire_test.go: the bid body's fast path against encoding/json, its referee.
// FuzzBidBody holds the two to one contract — whatever the fast path
// accepts, encoding/json accepts with the same values, bit for bit — and its
// committed corpus (testdata/fuzz/FuzzBidBody) rides along in plain `go test`
// runs. TestMarshalledBidsTakeFastPath pins the other side: the bodies real
// clients send must not drift off the fast path.

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

// maxBidHandlerAllocs pins one 4-bid × 6-candidate POST /v1/bid through
// Handler(): the body limiter. A re-bid books into its key's window of the
// candidate arena; a fresh slice per candidate list took four more,
// decoding with encoding/json took 46, and a fresh Content-Type slice per
// answer took one more.
const maxBidHandlerAllocs = 1

// raceEnabled is set by race_test.go.
var raceEnabled bool

func TestBidHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
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
	h := d.Handler()
	var rd bytes.Reader
	req := httptest.NewRequest(http.MethodPost, "/v1/bid", nil)
	req.Body = io.NopCloser(&rd)
	req.ContentLength = int64(len(body))
	w := &discardWriter{hdr: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		clear(w.hdr)
		w.status = 0
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	if st := d.Stats(); st.PendingBids != 4 {
		t.Fatalf("%d bids booked, want 4", st.PendingBids)
	}
	t.Logf("POST /v1/bid: %.1f allocations", allocs)
	if allocs > maxBidHandlerAllocs {
		t.Fatalf("POST /v1/bid allocates %.1f, pinned at %d", allocs, maxBidHandlerAllocs)
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
