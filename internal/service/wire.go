package service

// wire.go: reading POST bodies, and the bid body's one-pass decoder.
//
// Every POST body is read whole, once, through a 4 MiB limit into a pooled
// buffer; that read is where oversize bodies (413) are refused. A body must
// hold exactly one JSON value: trailing bytes other than whitespace get 400.
//
// POST /v1/bid is most of a busy daemon's calls, and encoding/json was about
// three quarters of its handler time. So a bid body in canonical form — the
// shape json.Marshal gives a BidBatch — is parsed in one pass straight into a
// pooled []BidRequest. Anything outside that form is declined and decoded by
// encoding/json, which stays the contract: every body the fast path accepts,
// encoding/json accepts too, with bit-identical values (FuzzBidBody referees
// the two). join/leave/offer take encoding/json directly: they are about one
// call in eight and cost ~3 µs each.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

const (
	// maxBody caps every POST body; a larger one is answered 413.
	maxBody = 4 << 20
	// maxPooledBody, maxPooledBids and maxPooledCands bound what an ingest
	// put back in ingestPool holds (64 KiB, 56 KiB and 64 KiB), so one big
	// body cannot pin maxBody per P. maxPooledBody also caps how far a
	// declared Content-Length pre-sizes the body buffer: beyond it the
	// buffer grows only as bytes arrive, so a client that declares 4 MiB
	// and sends nothing costs no more than one that declares 64 KiB.
	maxPooledBody  = 64 << 10
	maxPooledBids  = 1 << 10
	maxPooledCands = 4 << 10
)

var errTrailingData = errors.New("trailing data after the JSON value")

// ingest is one POST's pooled working memory: the body, read whole, and —
// for /v1/bid — the fast path's output, the batch's requests and one
// candidate slab, of which each request's Candidates is a capped window.
// Daemon.Bid copies every candidate list it books, so the whole ingest is
// free again once the handler returns.
type ingest struct {
	body  bytes.Buffer
	reqs  []BidRequest
	cands []sched.Candidate
}

var ingestPool = sync.Pool{New: func() any { return new(ingest) }}

func (in *ingest) release() {
	if in.body.Cap() <= maxPooledBody && cap(in.reqs) <= maxPooledBids && cap(in.cands) <= maxPooledCands {
		ingestPool.Put(in)
	}
}

// readBody reads a POST body whole into a pooled ingest, which the caller
// hands back with release once nothing references it. On failure it has
// answered the request and returns the status.
func readBody(w http.ResponseWriter, r *http.Request) (*ingest, int, bool) {
	if r.Method != http.MethodPost {
		return nil, writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST")), false
	}
	in := ingestPool.Get().(*ingest)
	in.body.Reset()
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants MinRead free for its last read.
		in.body.Grow(int(min(n, maxPooledBody)) + bytes.MinRead)
	}
	if _, err := in.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		in.release()
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, writeError(w, status, fmt.Errorf("bad request body: %w", err)), false
	}
	return in, 0, true
}

// decodeBody decodes a whole body with encoding/json: exactly one value, no
// unknown fields.
func decodeBody(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		err = errTrailingData
	}
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// requests converts a batch decoded by encoding/json to Daemon.Bid's form.
func (b *BidBatch) requests() []BidRequest {
	reqs := make([]BidRequest, 0, len(b.Bids))
	for _, wb := range b.Bids {
		cands := make([]sched.Candidate, 0, len(wb.Candidates))
		for _, c := range wb.Candidates {
			cands = append(cands, sched.Candidate{Peer: isp.PeerID(c.Peer), Cost: c.Cost})
		}
		reqs = append(reqs, BidRequest{
			Chunk:      video.ChunkID{Video: video.ID(wb.Video), Index: video.ChunkIndex(wb.Chunk)},
			Value:      wb.Value,
			Deadline:   wb.Deadline,
			Candidates: cands,
		})
	}
	return reqs
}

// decode parses body as a BidBatch in canonical form and returns the peer
// and the requests, which live in the ingest until its next decode. It reports
// false — declined — for anything else, and the caller falls back to
// encoding/json. Canonical form is a strict subset of JSON:
//
//   - objects hold only BidBatch, WireBid and WireCandidate keys, spelled
//     exactly, unescaped, each at most once, in any order;
//   - values are numbers of their field's type (no null, no strings) and
//     arrays of objects;
//   - JSON whitespace may sit between tokens, and only whitespace follows the
//     batch.
//
// Numbers are checked against the JSON grammar and then converted by the
// strconv calls encoding/json makes, so every value is bit-identical to its
// decode; a number encoding/json would refuse (a fraction or exponent in an
// integer field, an int32 overflow, 1e400) declines.
func (in *ingest) decode(body []byte) (peer int64, reqs []BidRequest, ok bool) {
	in.reqs, in.cands = in.reqs[:0], in.cands[:0]
	s := bidScanner{b: body}
	s.expect('{')
	var seen uint8
	for n := 0; s.member(n); n++ {
		switch string(s.key) {
		case "peer":
			s.once(&seen, 1)
			peer = s.int(64)
		case "bids":
			s.once(&seen, 2)
			s.expect('[')
			for i := 0; s.element(i); i++ {
				in.bid(&s)
			}
		default:
			s.decline()
		}
	}
	s.space()
	if s.bad || s.i != len(s.b) {
		return 0, nil, false
	}
	// Each bid's candidates were appended in order; point its window at the
	// final slab, which appends may have moved.
	lo := 0
	for i := range in.reqs {
		hi := lo + len(in.reqs[i].Candidates)
		in.reqs[i].Candidates = in.cands[lo:hi:hi]
		lo = hi
	}
	return peer, in.reqs, true
}

func (in *ingest) bid(s *bidScanner) {
	var r BidRequest
	var seen uint8
	lo := len(in.cands)
	s.expect('{')
	for n := 0; s.member(n); n++ {
		switch string(s.key) {
		case "video":
			s.once(&seen, 1)
			r.Chunk.Video = video.ID(s.int(32))
		case "chunk":
			s.once(&seen, 2)
			r.Chunk.Index = video.ChunkIndex(s.int(32))
		case "value":
			s.once(&seen, 4)
			r.Value = s.float()
		case "deadline":
			s.once(&seen, 8)
			r.Deadline = s.float()
		case "candidates":
			s.once(&seen, 16)
			s.expect('[')
			for i := 0; s.element(i); i++ {
				in.candidate(s)
			}
		default:
			s.decline()
		}
	}
	r.Candidates = in.cands[lo:]
	in.reqs = append(in.reqs, r)
}

func (in *ingest) candidate(s *bidScanner) {
	var c sched.Candidate
	var seen uint8
	s.expect('{')
	for n := 0; s.member(n); n++ {
		switch string(s.key) {
		case "peer":
			s.once(&seen, 1)
			c.Peer = isp.PeerID(s.int(64))
		case "cost":
			s.once(&seen, 2)
			c.Cost = s.float()
		default:
			s.decline()
		}
	}
	in.cands = append(in.cands, c)
}

// bidScanner walks one body for ingest.decode. Declining is sticky: it
// moves the cursor to the end, so every later step fails and every loop
// ends.
type bidScanner struct {
	b   []byte
	i   int
	key []byte // the member key read last
	bad bool
}

func (s *bidScanner) decline() { s.bad, s.i = true, len(s.b) }

// space skips JSON whitespace.
func (s *bidScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte after whitespace.
func (s *bidScanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *bidScanner) expect(c byte) {
	if !s.next(c) {
		s.decline()
	}
}

// once records a key's bit in seen, declining a key that repeats.
func (s *bidScanner) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.decline()
	}
	*seen |= bit
}

// member reads the n-th member key of the object being walked into s.key,
// up to its colon, or consumes the object's closing brace and reports false.
func (s *bidScanner) member(n int) bool {
	if s.next('}') {
		return false
	}
	if n > 0 {
		s.expect(',')
	}
	s.expect('"')
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' && s.b[s.i] != '\\' {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] == '\\' {
		s.decline()
		return false
	}
	s.key = s.b[start:s.i]
	s.i++
	s.expect(':')
	return !s.bad
}

// element reports whether the array being walked has an n-th element,
// consuming the separator before it, or consumes the closing bracket.
func (s *bidScanner) element(n int) bool {
	if s.next(']') {
		return false
	}
	if n > 0 {
		s.expect(',')
	}
	return !s.bad
}

// number consumes one JSON number and reports whether it is an integer
// literal (no fraction, no exponent).
func (s *bidScanner) number() (tok []byte, integer bool) {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.decline()
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		j := digits(b, i+1)
		if j == i+1 {
			s.decline()
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.decline()
			return nil, false
		}
		i = j
	}
	tok, s.i = b[s.i:i], i
	return tok, integer
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int reads an integer field of the given bit size as encoding/json does.
func (s *bidScanner) int(bits int) int64 {
	tok, integer := s.number()
	if !integer {
		s.decline()
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		s.decline()
	}
	return v
}

// float reads a float64 field as encoding/json does.
func (s *bidScanner) float() float64 {
	tok, _ := s.number()
	if s.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.decline()
	}
	return v
}
