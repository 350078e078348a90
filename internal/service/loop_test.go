package service

// loop_test.go: the daemon's whole tick loop through Handler() — an offer
// from every uploader, a four-bid batch from every downloader, the tick and
// a grants poll per downloader — allocates a constant per tick, whatever
// the population.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/isp"
)

// loopCall is one prepared call of a tick and its reusable body reader.
type loopCall struct {
	req  *http.Request
	rd   bytes.Reader
	body []byte
}

// tickLoop is a daemon with its population joined and the calls of one tick
// prepared: every tick posts the same offers and bids, so every tick solves
// the same instance and grants the same peers the same chunks.
type tickLoop struct {
	d     *Daemon
	h     http.Handler
	w     discardWriter
	calls []loopCall
}

func newTickLoop(t *testing.T, uploaders, bidders int) *tickLoop {
	t.Helper()
	d := manual(t, Options{Epsilon: 0.01})
	l := &tickLoop{d: d, h: d.Handler(), w: discardWriter{hdr: http.Header{}}}
	add := func(method, target string, body []byte) {
		l.calls = append(l.calls, loopCall{req: httptest.NewRequest(method, target, nil), body: body})
	}
	rng := rand.New(rand.NewSource(int64(bidders)))
	for u := 1; u <= uploaders; u++ {
		if err := d.Join(isp.PeerID(u), isp.ID(u%3)); err != nil {
			t.Fatal(err)
		}
		add(http.MethodPost, "/v1/offer", []byte(`{"peer":`+strconv.Itoa(u)+`,"capacity":`+strconv.Itoa(1+u%5)+`}`))
	}
	for b := 0; b < bidders; b++ {
		p := 1000 + b
		if err := d.Join(isp.PeerID(p), isp.ID(b%3)); err != nil {
			t.Fatal(err)
		}
		batch := BidBatch{Peer: int64(p)}
		for c := 0; c < 4; c++ {
			wb := WireBid{Video: int32(b % 7), Chunk: int32(c), Value: 1 + rng.Float64(), Deadline: float64(c)}
			for _, u := range rng.Perm(uploaders)[:6] {
				wb.Candidates = append(wb.Candidates, WireCandidate{Peer: int64(1 + u), Cost: 0.5 * rng.Float64()})
			}
			batch.Bids = append(batch.Bids, wb)
		}
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		add(http.MethodPost, "/v1/bid", body)
	}
	add(http.MethodPost, "/v1/tick", []byte{})
	for b := 0; b < bidders; b++ {
		add(http.MethodGet, "/v1/grants?peer="+strconv.Itoa(1000+b), nil)
	}
	for i := range l.calls {
		c := &l.calls[i]
		if c.body != nil {
			c.req.Body, c.req.ContentLength = io.NopCloser(&c.rd), int64(len(c.body))
		}
	}
	return l
}

// tick serves one tick's calls, reporting the first that failed.
func (l *tickLoop) tick(t *testing.T) {
	for i := range l.calls {
		c := &l.calls[i]
		c.rd.Reset(c.body)
		clear(l.w.hdr)
		l.w.status = 0
		l.h.ServeHTTP(&l.w, c.req)
		if l.w.status != http.StatusOK {
			t.Fatalf("%s %s: status %d", c.req.Method, c.req.URL, l.w.status)
		}
	}
}

// maxTickLoopAllocs pins one steady-state tick through Handler(), at 200
// and at 2 000 bidders: the solve's sched.Result — the struct, its grants
// slice, 4 for its 50-uploader Prices map and 1 for its Stats map. Every
// offer, bid, poll, the instance build and the tick's answer allocate
// nothing; with encoding/json on the small verbs and the answers, a fresh
// sched.NewInstance and a rebuilt grant book, a tick took 1 235 at 200
// bidders and 4 909 at 2 000.
const maxTickLoopAllocs = 8

func TestTickLoopAllocs(t *testing.T) {
	var counts []float64
	for _, bidders := range []int{200, 2000} {
		l := newTickLoop(t, 50, bidders)
		for range 3 { // grow the books, the builder and the solver
			l.tick(t)
		}
		allocs := testing.AllocsPerRun(10, func() { l.tick(t) })
		st := l.d.Stats()
		if st.LastGrants == 0 || st.Slot < 14 {
			t.Fatalf("%d bidders: trivial loop %+v", bidders, st)
		}
		t.Logf("%d bidders: %.1f allocations per tick (%d calls, %d grants)", bidders, allocs, len(l.calls), st.LastGrants)
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("a tick allocates %.1f at 200 bidders and %.1f at 2 000: not a constant", counts[0], counts[1])
	}
	if counts[0] > maxTickLoopAllocs {
		t.Fatalf("a tick allocates %.1f, pinned at %d", counts[0], maxTickLoopAllocs)
	}
}
