package service

// http.go: the daemon's HTTP/JSON API. Endpoints are versioned under /v1 and
// deliberately flat — one POST per protocol verb (join/leave/offer/bid/tick),
// one GET per observable (grants/stats), plus /metrics (Prometheus text) and
// /healthz. The wire contract is mirrored by internal/loadtest's client; the
// end-to-end golden test drives both sides, so a drift between them fails CI
// rather than a production scrape.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/cdn"
	"repro/internal/isp"
	"repro/internal/obs"
)

// Wire types. Field names are the API contract.

// JoinRequest registers a peer.
type JoinRequest struct {
	Peer int64 `json:"peer"`
	ISP  int   `json:"isp"`
}

// LeaveRequest deregisters a peer.
type LeaveRequest struct {
	Peer int64 `json:"peer"`
}

// OfferRequest posts upload capacity for the next slot.
type OfferRequest struct {
	Peer     int64 `json:"peer"`
	Capacity int   `json:"capacity"`
}

// WireCandidate is one candidate uploader edge of a bid.
type WireCandidate struct {
	Peer int64   `json:"peer"`
	Cost float64 `json:"cost"`
}

// WireBid is one chunk bid.
type WireBid struct {
	Video      int32           `json:"video"`
	Chunk      int32           `json:"chunk"`
	Value      float64         `json:"value"`
	Deadline   float64         `json:"deadline,omitempty"`
	Candidates []WireCandidate `json:"candidates"`
}

// BidBatch posts a batch of bids for one peer.
type BidBatch struct {
	Peer int64     `json:"peer"`
	Bids []WireBid `json:"bids"`
}

// WireGrant is one granted transfer, as served by /v1/grants.
type WireGrant struct {
	Video    int32   `json:"video"`
	Chunk    int32   `json:"chunk"`
	Uploader int64   `json:"uploader"`
	Price    float64 `json:"price"`
}

// GrantsResponse is the poll answer: the slot the grants belong to and the
// peer's share of it.
type GrantsResponse struct {
	Slot   int64       `json:"slot"`
	Grants []WireGrant `json:"grants"`
}

// TickResponse reports one manually triggered slot.
type TickResponse struct {
	Slot      int64   `json:"slot"`
	Requests  int     `json:"requests"`
	Uploaders int     `json:"uploaders"`
	Grants    int     `json:"grants"`
	Rejected  int     `json:"rejected"`
	Welfare   float64 `json:"welfare"`
	Shards    int     `json:"shards"`
	SolveMs   float64 `json:"solve_ms"`
	// Degraded marks a slot whose warm solve missed its deadline; Greedy
	// additionally marks escalation to the fallback scheduler.
	Degraded bool `json:"degraded,omitempty"`
	Greedy   bool `json:"greedy,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API as an http.Handler, usable behind
// any mux or test server.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/join", d.instrument(d.handleJoin))
	mux.HandleFunc("/v1/leave", d.instrument(d.handleLeave))
	mux.HandleFunc("/v1/offer", d.instrument(d.handleOffer))
	mux.HandleFunc("/v1/bid", d.instrument(d.handleBid))
	mux.HandleFunc("/v1/tick", d.instrument(d.handleTick))
	mux.HandleFunc("/v1/grants", d.instrument(d.handleGrants))
	mux.HandleFunc("/v1/stats", d.instrument(d.handleStats))
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", d.handleHealthz)
	return mux
}

// instrument wraps a handler with the request counter, the latency histogram
// and (when a trace capture is live) a per-request span. Handlers run on
// concurrent goroutines, so request spans go to a shared (locked) track —
// the lock is off the solve path. The span's slot arg links each request to
// the tick span that serves (or will serve) its slot.
func (d *Daemon) instrument(h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var sp obs.Span
		if tk := obs.SharedTrackFor("http"); tk != nil {
			sp = tk.Begin("req " + r.URL.Path) // concat only when tracing
		}
		status := h(w, r)
		sp.Arg("status", float64(status)).
			Arg("slot", float64(d.tickSeq.Load()))
		sp.End()
		d.metrics.httpRequests.Add(1)
		if status >= 400 {
			d.metrics.httpErrors.Add(1)
		}
		d.metrics.httpSeconds.Observe(time.Since(start).Seconds())
	}
}

// jsonContentType is writeJSON's Content-Type value, shared by every answer
// (Header().Set would allocate a fresh one-element slice per call). net/http
// only reads header values, and an Add would copy, not write through.
var jsonContentType = []string{"application/json"}

// writeJSON answers with a JSON body and returns the status for the
// instrumentation wrapper.
func writeJSON(w http.ResponseWriter, status int, body any) int {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
	return status
}

func writeError(w http.ResponseWriter, status int, err error) int {
	return writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeOverloaded answers a load-shed refusal: 429 with a Retry-After hint of
// one slot interval (rounded up to a whole second; 1 s for manually ticked
// daemons), the point at which the books will have drained.
func (d *Daemon) writeOverloaded(w http.ResponseWriter, err error) int {
	retry := int64(1)
	if iv := d.opts.SlotInterval; iv > 0 {
		retry = int64((iv + time.Second - 1) / time.Second)
		if retry < 1 {
			retry = 1
		}
	}
	w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
	return writeError(w, http.StatusTooManyRequests, err)
}

// decodeInto reads a join/leave/offer body and decodes it with
// encoding/json. These verbs are about one call in eight on a busy daemon,
// at ~3 µs each, so unlike /v1/bid they take no fast path (wire.go).
func decodeInto(w http.ResponseWriter, r *http.Request, into any) (int, bool) {
	in, status, ok := readBody(w, r)
	if !ok {
		return status, false
	}
	defer in.release()
	if err := decodeBody(in.body.Bytes(), into); err != nil {
		return writeError(w, http.StatusBadRequest, err), false
	}
	return 0, true
}

func (d *Daemon) handleJoin(w http.ResponseWriter, r *http.Request) int {
	var req JoinRequest
	if status, ok := decodeInto(w, r, &req); !ok {
		return status
	}
	if err := d.Join(isp.PeerID(req.Peer), isp.ID(req.ISP)); err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK, struct{}{})
}

func (d *Daemon) handleLeave(w http.ResponseWriter, r *http.Request) int {
	var req LeaveRequest
	if status, ok := decodeInto(w, r, &req); !ok {
		return status
	}
	if err := d.Leave(isp.PeerID(req.Peer)); err != nil {
		return writeError(w, http.StatusNotFound, err)
	}
	return writeJSON(w, http.StatusOK, struct{}{})
}

func (d *Daemon) handleOffer(w http.ResponseWriter, r *http.Request) int {
	var req OfferRequest
	if status, ok := decodeInto(w, r, &req); !ok {
		return status
	}
	if err := d.Offer(isp.PeerID(req.Peer), req.Capacity); err != nil {
		if errors.Is(err, ErrOverloaded) {
			return d.writeOverloaded(w, err)
		}
		return writeError(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK, struct{}{})
}

// handleBid books a bid batch. A body in canonical form is decoded in one
// pass into pooled scratch (wire.go); any other is decoded by encoding/json,
// with the same result.
func (d *Daemon) handleBid(w http.ResponseWriter, r *http.Request) int {
	in, status, ok := readBody(w, r)
	if !ok {
		return status
	}
	defer in.release()
	peer, reqs, ok := in.decode(in.body.Bytes())
	if !ok {
		var req BidBatch
		if err := decodeBody(in.body.Bytes(), &req); err != nil {
			return writeError(w, http.StatusBadRequest, err)
		}
		peer, reqs = req.Peer, req.requests()
	}
	if err := d.Bid(isp.PeerID(peer), reqs); err != nil {
		if errors.Is(err, ErrOverloaded) {
			return d.writeOverloaded(w, err)
		}
		return writeError(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK, struct{}{})
}

func (d *Daemon) handleTick(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
	}
	tr, err := d.Tick()
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err)
	}
	return writeJSON(w, http.StatusOK, TickResponse{
		Slot:      tr.Slot,
		Requests:  tr.Requests,
		Uploaders: tr.Uploaders,
		Grants:    tr.Grants,
		Rejected:  tr.Rejected,
		Welfare:   tr.Welfare,
		Shards:    tr.Shards,
		SolveMs:   float64(tr.Solve) / float64(time.Millisecond),
		Degraded:  tr.Degraded,
		Greedy:    tr.Greedy,
	})
}

func (d *Daemon) handleGrants(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
	}
	peer, err := strconv.ParseInt(queryGet(r.URL.RawQuery, "peer"), 10, 64)
	if err != nil {
		return writeError(w, http.StatusBadRequest, fmt.Errorf("peer query parameter: %w", err))
	}
	slot, gs := d.Grants(isp.PeerID(peer))
	resp := GrantsResponse{Slot: slot, Grants: make([]WireGrant, 0, len(gs))}
	for _, g := range gs {
		resp.Grants = append(resp.Grants, WireGrant{
			Video:    int32(g.Chunk.Video),
			Chunk:    int32(g.Chunk.Index),
			Uploader: int64(g.Uploader),
			Price:    g.Price,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// queryGet returns the first value of key in a raw URL query, exactly as
// url.ParseQuery(raw).Get(key) would (r.URL.Query().Get), without building
// the map: pairs split on '&', a pair holding ';' is skipped, a pair whose
// key or value does not unescape is skipped, and a missing key reads "".
// url.QueryUnescape returns its argument as is when there is nothing to
// unescape, so the common case allocates nothing.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil || k != key {
			continue
		}
		if v, err = url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
	}
	return writeJSON(w, http.StatusOK, d.Stats())
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error means the scraper hung up; there is no one left to tell.
	if d.metrics.reg.WritePrometheus(w) == nil {
		_ = cdn.Telemetry.WritePrometheus(w)
	}
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
