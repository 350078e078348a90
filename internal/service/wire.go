package service

// wire.go: reading POST bodies, the one-pass decoders for canonical bodies,
// and the writers of the tick and grants answers.
//
// Every POST body is read whole, once, through a 4 MiB limit into a pooled
// buffer; that read is where oversize bodies (413) are refused. A body must
// hold exactly one JSON value: trailing bytes other than whitespace get 400.
//
// The daemon's tick loop is one offer per uploader, one bid batch per
// downloader, the tick and one grants poll per downloader, and
// encoding/json's reflection was most of its allocations. So every body a
// tick posts is parsed in one pass when it is in canonical form — the shape
// json.Marshal gives its wire type: a bid batch straight into a pooled
// []BidRequest, and a join, leave or offer body into its integer fields.
// Anything outside that form is declined and decoded by encoding/json, which
// stays the contract: every body a fast path accepts, encoding/json accepts
// too, with bit-identical values (FuzzBidBody and FuzzVerbBody referee the
// two). The tick and grants answers are appended into pooled bytes, the
// grants straight from the grant book, byte for byte what json.Encoder
// writes (TestTickBodyMatchesEncoder, TestGrantsBodyMatchesEncoder).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

const (
	// maxBody caps every POST body; a larger one is answered 413.
	maxBody = 4 << 20
	// maxPooledBody, maxPooledBids and maxPooledCands bound what an ingest
	// put back on the free list holds (64 KiB for the body and for a poll's
	// answer, 56 KiB and 64 KiB), so one big body cannot pin maxBody.
	// maxPooledBody also caps how far a declared Content-Length pre-sizes
	// the body buffer: beyond it the buffer grows only as bytes arrive, so
	// a client that declares 4 MiB and sends nothing costs no more than one
	// that declares 64 KiB.
	maxPooledBody  = 64 << 10
	maxPooledBids  = 1 << 10
	maxPooledCands = 4 << 10
	// maxFreeIngests bounds the free list: room for an ingest per handler
	// a busy daemon runs at once (cmd/loadgen runs 16 clients by default,
	// its full suite 32), and with the caps above at most 8 MiB held, a
	// few KiB per ingest in practice.
	maxFreeIngests = 32
)

var errTrailingData = errors.New("trailing data after the JSON value")

// errBodyTooLarge is what http.MaxBytesReader returns past its limit.
var errBodyTooLarge error = &http.MaxBytesError{Limit: maxBody}

// ingest is one call's pooled working memory: a POST's body, read whole
// through lim, and — for /v1/bid — the fast path's output, the batch's
// requests and one candidate slab, of which each request's Candidates is a
// capped window; or a poll's answer, out. Daemon.Bid copies every candidate
// list it books, so the whole ingest is free again once the handler
// returns.
type ingest struct {
	body  bytes.Buffer
	lim   bodyLimit
	reqs  []BidRequest
	cands []sched.Candidate
	out   []byte
}

// freeIngests is the ingest free list. It is not a sync.Pool: a pool sets
// its objects aside at every GC, and a Get on one P cannot reach the object
// another P kept for itself, so on a daemon that collects every few ticks
// the pool kept losing ingests, and each one lost re-grew four buffers.
var freeIngests = make(chan *ingest, maxFreeIngests)

func getIngest() *ingest {
	select {
	case in := <-freeIngests:
		return in
	default:
		return new(ingest)
	}
}

func (in *ingest) release() {
	in.lim = bodyLimit{}
	if in.body.Cap() > maxPooledBody || cap(in.reqs) > maxPooledBids || cap(in.cands) > maxPooledCands ||
		cap(in.out) > maxPooledBody {
		return
	}
	select {
	case freeIngests <- in:
	default: // the list is full; let the GC have it
	}
}

// bodyLimit reads a request body up to maxBody bytes and fails with
// errBodyTooLarge past it, as http.MaxBytesReader does; unlike one, it lives
// in the pooled ingest. The byte past the limit is read, so a body of
// exactly maxBody bytes passes.
type bodyLimit struct {
	r io.Reader
	n int64 // bytes left before the limit
}

func (l *bodyLimit) Read(p []byte) (int, error) {
	if l.n < 0 {
		return 0, errBodyTooLarge
	}
	if len(p) == 0 {
		return 0, nil
	}
	if int64(len(p)) > l.n+1 {
		p = p[:l.n+1]
	}
	n, err := l.r.Read(p)
	if int64(n) <= l.n {
		l.n -= int64(n)
		return n, err
	}
	n, l.n = int(l.n), -1
	return n, errBodyTooLarge
}

// passLimit tells the server what http.MaxBytesReader tells it when a body
// passes the limit: answer with Connection: close, stop reading the
// connection and close it after the answer. net/http exposes that only
// through a MaxBytesReader, so one with a zero limit reads one byte. It
// runs only on the oversize path.
func passLimit(w http.ResponseWriter) {
	_, _ = http.MaxBytesReader(w, io.NopCloser(strings.NewReader("x")), 0).Read(make([]byte, 1))
}

// readBody reads a POST body whole into a pooled ingest, which the caller
// hands back with release once nothing references it. On failure it has
// answered the request and returns the status.
func readBody(w http.ResponseWriter, r *http.Request) (*ingest, int, bool) {
	if r.Method != http.MethodPost {
		return nil, writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST")), false
	}
	in := getIngest()
	in.body.Reset()
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants MinRead free for its last read.
		in.body.Grow(int(min(n, maxPooledBody)) + bytes.MinRead)
	}
	in.lim = bodyLimit{r: r.Body, n: maxBody}
	if _, err := in.body.ReadFrom(&in.lim); err != nil {
		in.release()
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			passLimit(w)
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

// verbBody describes a join, leave or offer body for its fast path: the
// wire type's member keys, spelled as its json tags, and the bit size each
// integer field is parsed at, as encoding/json parses it.
type verbBody struct {
	keys []string
	bits []int
}

var (
	joinBody  = verbBody{keys: []string{"peer", "isp"}, bits: []int{64, strconv.IntSize}}
	leaveBody = verbBody{keys: []string{"peer"}, bits: []int{64}}
	offerBody = verbBody{keys: []string{"peer", "capacity"}, bits: []int{64, strconv.IntSize}}
)

// decode parses body as v's wire type in canonical form and returns the
// fields in key order, 0 for a key the body leaves out, as encoding/json
// leaves it. It reports false — declined — for anything else, and the
// caller falls back to encoding/json. Canonical form is the bid body's:
// exact keys, each at most once, integer literals of the field's size, JSON
// whitespace between tokens and only whitespace after the object.
func (v *verbBody) decode(body []byte) (vals [2]int64, ok bool) {
	s := bidScanner{b: body}
	s.expect('{')
	var seen uint8
	for n := 0; s.member(n); n++ {
		k := 0
		for k < len(v.keys) && string(s.key) != v.keys[k] {
			k++
		}
		if k == len(v.keys) {
			s.decline()
			break
		}
		s.once(&seen, 1<<k)
		vals[k] = s.int(v.bits[k])
	}
	s.space()
	return vals, !s.bad && s.i == len(s.b)
}

// bidScanner walks one body for ingest.decode or verbBody.decode.
// Declining is sticky: it moves the cursor to the end, so every later step
// fails and every loop ends.
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

// appendGrantsBody appends the /v1/grants answer for slot and gs to b, byte
// for byte what json.NewEncoder(w).Encode writes for its GrantsResponse:
// keys in field order, [] for no grants, encoding/json's floats and a
// trailing newline. A NaN or infinite price, which the encoder refuses,
// leaves b as it was: the encoder writes nothing then.
func appendGrantsBody(b []byte, slot int64, gs []Grant) []byte {
	n := len(b)
	b = append(b, `{"slot":`...)
	b = strconv.AppendInt(b, slot, 10)
	b = append(b, `,"grants":[`...)
	for i, g := range gs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"video":`...)
		b = strconv.AppendInt(b, int64(int32(g.Chunk.Video)), 10)
		b = append(b, `,"chunk":`...)
		b = strconv.AppendInt(b, int64(int32(g.Chunk.Index)), 10)
		b = append(b, `,"uploader":`...)
		b = strconv.AppendInt(b, int64(g.Uploader), 10)
		b = append(b, `,"price":`...)
		var ok bool
		if b, ok = appendFloat(b, g.Price); !ok {
			return b[:n]
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendTickBody appends t to b, byte for byte what
// json.NewEncoder(w).Encode writes for it, as appendGrantsBody does for a
// poll; a NaN or infinite float leaves b as it was.
func appendTickBody(b []byte, t *TickResponse) []byte {
	n := len(b)
	b = append(b, `{"slot":`...)
	b = strconv.AppendInt(b, t.Slot, 10)
	b = append(b, `,"requests":`...)
	b = strconv.AppendInt(b, int64(t.Requests), 10)
	b = append(b, `,"uploaders":`...)
	b = strconv.AppendInt(b, int64(t.Uploaders), 10)
	b = append(b, `,"grants":`...)
	b = strconv.AppendInt(b, int64(t.Grants), 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, int64(t.Rejected), 10)
	b = append(b, `,"welfare":`...)
	b, ok1 := appendFloat(b, t.Welfare)
	b = append(b, `,"shards":`...)
	b = strconv.AppendInt(b, int64(t.Shards), 10)
	b = append(b, `,"solve_ms":`...)
	b, ok2 := appendFloat(b, t.SolveMs)
	b = append(b, `,"gap":`...)
	b, ok3 := appendFloat(b, t.Gap)
	if !ok1 || !ok2 || !ok3 {
		return b[:n]
	}
	if t.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, "}\n"...)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07). It reports
// false for NaN and ±Inf.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
