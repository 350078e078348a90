// Package loadtest drives synthetic peer populations against a live
// schedulerd endpoint and records disciplined load profiles — baseline,
// spike, stress, soak — into a benchmark manifest (BENCH_loadtest.json).
//
// The package speaks the daemon's HTTP/JSON wire contract with its own
// client (client.go) rather than importing internal/service, so it exercises
// the API exactly as an external peer would; the end-to-end golden test in
// internal/service replays a simulator trace through this client, which
// pins the two sides of the contract together.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Wire types, mirroring internal/service's API contract field for field.

// Candidate is one candidate uploader edge of a bid.
type Candidate struct {
	Peer int64   `json:"peer"`
	Cost float64 `json:"cost"`
}

// Bid is one chunk bid.
type Bid struct {
	Video      int32       `json:"video"`
	Chunk      int32       `json:"chunk"`
	Value      float64     `json:"value"`
	Deadline   float64     `json:"deadline,omitempty"`
	Candidates []Candidate `json:"candidates"`
}

// Grant is one granted transfer from /v1/grants.
type Grant struct {
	Video    int32   `json:"video"`
	Chunk    int32   `json:"chunk"`
	Uploader int64   `json:"uploader"`
	Price    float64 `json:"price"`
}

// GrantsResponse is the grant-poll answer.
type GrantsResponse struct {
	Slot   int64   `json:"slot"`
	Grants []Grant `json:"grants"`
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
	Degraded  bool    `json:"degraded,omitempty"`
}

// StatsTotals are the daemon's cumulative counters.
type StatsTotals struct {
	Ticks        int64   `json:"ticks"`
	Bids         int64   `json:"bids"`
	BidsRejected int64   `json:"bids_rejected"`
	Grants       int64   `json:"grants"`
	Joins        int64   `json:"joins"`
	Leaves       int64   `json:"leaves"`
	Welfare      float64 `json:"welfare"`
	Degraded     int64   `json:"degraded_slots"`
	Shed         int64   `json:"shed_requests"`
}

// Stats is the daemon's /v1/stats snapshot (the subset the load generator
// consumes; unknown fields are ignored on decode).
type Stats struct {
	Scheduler       string      `json:"scheduler"`
	Slot            int64       `json:"slot"`
	Peers           int         `json:"peers"`
	PendingBids     int         `json:"pending_bids"`
	Totals          StatsTotals `json:"totals"`
	LastWelfare     float64     `json:"last_welfare"`
	LastSolveMs     float64     `json:"last_solve_ms"`
	HeapAllocBytes  uint64      `json:"heap_alloc_bytes"`
	HeapObjects     uint64      `json:"heap_objects"`
	TotalAllocBytes uint64      `json:"total_alloc_bytes"`
	NumGC           uint32      `json:"num_gc"`
	NumGoroutine    int         `json:"num_goroutine"`
}

// Client is a schedulerd API client. The zero value is not usable; call
// NewClient or NewClientWithRetry.
type Client struct {
	base   string
	http   *http.Client
	retry  RetryPolicy
	rstats *RetryStats
}

// NewClient returns a client for a schedulerd base URL
// (e.g. "http://127.0.0.1:8844"). It never retries: every failure surfaces
// on the first attempt, which the deterministic end-to-end golden relies on.
func NewClient(base string) *Client {
	return &Client{
		base: base,
		http: &http.Client{Timeout: 30 * time.Second},
	}
}

// NewClientWithRetry returns a client that retries transient connection
// failures and shed (429/503) answers under the policy, recording activity
// into stats (shared across clients; may be nil).
func NewClientWithRetry(base string, policy RetryPolicy, stats *RetryStats) *Client {
	c := NewClient(base)
	c.retry = policy
	c.rstats = stats
	return c
}

// apiError is a non-2xx answer from the daemon.
type apiError struct {
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint on shed answers (zero when
	// absent).
	RetryAfter time.Duration
}

func (e *apiError) Error() string {
	return fmt.Sprintf("loadtest: server status %d: %s", e.Status, e.Msg)
}

func (c *Client) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("loadtest: encoding %s body: %w", path, err)
	}
	return c.withRetry(func() error {
		resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("loadtest: POST %s: %w", path, err)
		}
		return finish(resp, path, out)
	})
}

func (c *Client) get(path string, out any) error {
	return c.withRetry(func() error {
		resp, err := c.http.Get(c.base + path)
		if err != nil {
			return fmt.Errorf("loadtest: GET %s: %w", path, err)
		}
		return finish(resp, path, out)
	})
}

func finish(resp *http.Response, path string, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
		ra := time.Duration(0)
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ra = time.Duration(secs) * time.Second
		}
		return &apiError{Status: resp.StatusCode, Msg: e.Error, RetryAfter: ra}
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("loadtest: decoding %s response: %w", path, err)
	}
	return nil
}

// Join registers a peer.
func (c *Client) Join(peer int64, ispID int) error {
	return c.post("/v1/join", map[string]any{"peer": peer, "isp": ispID}, nil)
}

// Leave deregisters a peer.
func (c *Client) Leave(peer int64) error {
	return c.post("/v1/leave", map[string]any{"peer": peer}, nil)
}

// Offer posts upload capacity for the next slot.
func (c *Client) Offer(peer int64, capacity int) error {
	return c.post("/v1/offer", map[string]any{"peer": peer, "capacity": capacity}, nil)
}

// SubmitBids posts a batch of bids for one peer.
func (c *Client) SubmitBids(peer int64, bids []Bid) error {
	return c.post("/v1/bid", map[string]any{"peer": peer, "bids": bids}, nil)
}

// Tick triggers one slot (manual-tick daemons only, or composes with the
// wall clock).
func (c *Client) Tick() (TickResponse, error) {
	var tr TickResponse
	err := c.post("/v1/tick", struct{}{}, &tr)
	return tr, err
}

// Grants polls a peer's grants from the last solved slot.
func (c *Client) Grants(peer int64) (GrantsResponse, error) {
	var gr GrantsResponse
	err := c.get("/v1/grants?peer="+url.QueryEscape(strconv.FormatInt(peer, 10)), &gr)
	return gr, err
}

// Stats fetches the daemon's stats snapshot.
func (c *Client) Stats() (Stats, error) {
	var s Stats
	err := c.get("/v1/stats", &s)
	return s, err
}

// Healthy reports whether the endpoint answers /healthz.
func (c *Client) Healthy() bool {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}
