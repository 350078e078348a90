// Package service stands the auction up as a long-running scheduler daemon:
// the online counterpart of the batch simulators. Peers register, submit
// bandwidth offers and chunk bids over an HTTP/JSON API (http.go); slots tick
// on a wall clock (or on demand); every tick drains the current bid book into
// one sched.Instance, built on a kept sched.Builder, and solves it cold, as
// the paper's bidding cycle does:
// every downloader re-bids and λ is re-cleared from zero, by one kept
// sched.Auction or, when sharding is enabled, by cluster.ShardedAuction's
// cold per-shard auctions. Grants are held for polling until the next tick
// overwrites them; /metrics exports Prometheus-format counters, gauges and
// solve-latency histograms (metrics.go); Drain stops the clock, solves the
// outstanding book and writes a JSON state snapshot for the next process.
//
// The daemon deliberately reuses the exact scheduler implementations the
// simulators run: a trace of ticks fed the same instances produces the same
// grants, which is what the end-to-end golden test pins (each tick of a
// daemon-served trace grants and earns exactly what the equivalent
// internal/sim round does).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/isp"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/video"
)

// Options configures a Daemon. The zero value is not runnable; use
// DefaultOptions as the base.
type Options struct {
	// Epsilon is the auction bid increment.
	Epsilon float64
	// SlotInterval is the wall-clock tick period. 0 disables the internal
	// clock: slots advance only on explicit Tick calls (POST /v1/tick) —
	// the mode tests and trace replays use.
	SlotInterval time.Duration
	// Sharded switches the slot scheduler from the monolithic cold auction
	// to the sharded swarm orchestrator (cluster.ShardedAuction).
	Sharded bool
	// ShardWorkers bounds concurrent shard solves (0 or 1 = sequential).
	ShardWorkers int
	// SnapshotPath, when non-empty, is where Drain writes the JSON state
	// snapshot, and where New restores one from if the file exists.
	SnapshotPath string
	// SnapshotEvery additionally writes the snapshot every N completed ticks
	// (0 = only on Drain). With a small N the daemon survives a SIGKILL with
	// at most N ticks of counter drift — the crash-recovery golden runs at 1.
	SnapshotEvery int

	// SolveDeadline is each tick's solve budget, counted from the tick's
	// start. 0 disables the deadline. A solve still bidding when the
	// deadline passes stops, fills spare capacity and serves that
	// assignment with its certified duality gap; the slot is marked
	// degraded. Every solve runs inside its tick either way.
	SolveDeadline time.Duration

	// MaxPendingBids/MaxPendingOffers bound the books between ticks:
	// submissions past the bound fail with ErrOverloaded, which the HTTP
	// layer maps to 429 + Retry-After. 0 = unbounded.
	MaxPendingBids   int
	MaxPendingOffers int

	// Fault wires the deterministic fault layer into the daemon for staging
	// drills: SolveDelay/SolveDelayEveryN wrap the solver (its sleep eats
	// the solve deadline, forcing degraded ticks on demand) and
	// KillAfterTicks trips the kill point — a signal the operator
	// (cmd/schedulerd) answers by exiting without draining, the
	// SIGKILL-equivalent the recovery golden restores from. The zero value
	// changes nothing.
	Fault fault.Spec
}

// DefaultOptions returns the daemon defaults: the paper's ε, a 1-second
// slot clock, monolithic cold auction.
func DefaultOptions() Options {
	return Options{Epsilon: 0.01, SlotInterval: time.Second}
}

// peerInfo is the daemon's registration record for one peer.
type peerInfo struct {
	ISP isp.ID
}

// bidKey identifies a bid within one tick's book: the same peer re-bidding
// for the same chunk replaces its earlier bid (last write wins), mirroring
// how the simulators build at most one request per (peer, chunk).
type bidKey struct {
	peer  isp.PeerID
	chunk video.ChunkID
}

// Grant is one granted chunk transfer from the last solved slot.
type Grant struct {
	Chunk    video.ChunkID
	Uploader isp.PeerID
	// Price is the uploader's closing λ_u for the slot.
	Price float64
}

// Totals are the daemon's cumulative counters, carried across restarts via
// the snapshot.
type Totals struct {
	Ticks        int64   `json:"ticks"`
	Bids         int64   `json:"bids"`
	BidsRejected int64   `json:"bids_rejected"`
	Grants       int64   `json:"grants"`
	Joins        int64   `json:"joins"`
	Leaves       int64   `json:"leaves"`
	Welfare      float64 `json:"welfare"`
	// DegradedSlots counts ticks whose solve the deadline stopped;
	// ShedRequests counts Bid/Offer calls refused with ErrOverloaded. Both
	// zero unless the corresponding Options bounds are set.
	DegradedSlots int64 `json:"degraded_slots"`
	ShedRequests  int64 `json:"shed_requests"`
}

// TickResult summarizes one solved slot.
type TickResult struct {
	Slot      int64
	Requests  int
	Uploaders int
	Grants    int
	Rejected  int
	Welfare   float64
	Shards    int
	Solve     time.Duration
	// Gap is the slot's certified duality gap, Dual(λ) − Welfare: the
	// published grants are within Gap of the slot's optimal welfare.
	Gap float64
	// Degraded marks a slot whose solve the deadline stopped.
	Degraded bool
}

// Daemon is the live scheduler: one kept cold solver behind a
// registration/bid/grant state machine. All methods are safe for concurrent
// use. Create with New, stop with Drain (or Close to skip the final solve).
type Daemon struct {
	opts  Options
	sched sched.Scheduler
	// deadline is the kept solver's Deadline field, which each tick sets
	// when it starts (SolveDeadline > 0 only).
	deadline *time.Time

	mu       sync.Mutex
	peers    map[isp.PeerID]peerInfo
	offers   []sched.Uploader
	offerIdx map[isp.PeerID]int
	bids     []sched.Request
	bidIdx   map[bidKey]int
	// cands is the bid book's candidate arena: each booked request's
	// Candidates is a capped window of it, which a re-bid for the same key
	// reuses when the new list fits. The tick's drain truncates it.
	cands []sched.Candidate
	// builder turns the books into each tick's instance, reusing its arrays
	// and uploader index across ticks; upRow is the tick's instance row of
	// each offer book row (-1 for a tombstone).
	builder *sched.Builder
	upRow   []int32
	// grants holds the last solved slot's per-peer grants; grantSlot is the
	// slot they belong to. A tick truncates each peer's slice and refills
	// it, so a steady population re-grants into the same arrays; Leave
	// deletes its peer's entry.
	grants    map[isp.PeerID][]Grant
	grantSlot int64
	slot      int64
	totals    Totals
	last      TickResult
	started   time.Time
	draining  bool

	// overruns counts consecutive degraded ticks and resets when a solve
	// finishes within its deadline.
	overruns int

	metrics *daemonMetrics

	// tickSeq counts completed tickLocked calls (including failed solves),
	// outside d.mu so the debug trace-capture endpoint can watch slot
	// progress without contending with the tick path.
	tickSeq atomic.Int64

	// killed closes when Options.Fault.KillAfterTicks trips (see KillPoint).
	killed   chan struct{}
	killOnce sync.Once

	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
}

// New creates a daemon, restores the snapshot if Options.SnapshotPath names
// an existing file, and starts the slot clock when SlotInterval > 0.
func New(opts Options) (*Daemon, error) {
	if opts.Epsilon <= 0 {
		return nil, fmt.Errorf("service: epsilon must be positive, got %v", opts.Epsilon)
	}
	if opts.SlotInterval < 0 {
		return nil, fmt.Errorf("service: negative slot interval %v", opts.SlotInterval)
	}
	if opts.SolveDeadline < 0 {
		return nil, fmt.Errorf("service: negative solve deadline %v", opts.SolveDeadline)
	}
	if opts.MaxPendingBids < 0 || opts.MaxPendingOffers < 0 {
		return nil, fmt.Errorf("service: negative book bound (%d bids, %d offers)",
			opts.MaxPendingBids, opts.MaxPendingOffers)
	}
	if opts.SnapshotEvery < 0 {
		return nil, fmt.Errorf("service: negative snapshot interval %d", opts.SnapshotEvery)
	}
	if err := opts.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	d := &Daemon{
		opts:     opts,
		peers:    make(map[isp.PeerID]peerInfo),
		offerIdx: make(map[isp.PeerID]int),
		bidIdx:   make(map[bidKey]int),
		builder:  sched.NewBuilder(),
		grants:   make(map[isp.PeerID][]Grant),
		started:  time.Now(),
		killed:   make(chan struct{}),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		metrics:  newDaemonMetrics(),
	}
	if opts.Sharded {
		sa := &cluster.ShardedAuction{Epsilon: opts.Epsilon, Workers: opts.ShardWorkers}
		d.sched, d.deadline = sa, &sa.Deadline
	} else {
		a := &sched.Auction{Epsilon: opts.Epsilon}
		d.sched, d.deadline = a, &a.Deadline
	}
	// The slow-solver drill wraps whatever stack was chosen (no-op when the
	// fault spec injects no delay).
	d.sched = fault.Slow(d.sched, opts.Fault)
	d.metrics.solverEpsilon.Set(opts.Epsilon)
	if opts.SnapshotPath != "" {
		if err := d.restoreSnapshot(opts.SnapshotPath); err != nil {
			return nil, err
		}
	}
	if opts.SlotInterval > 0 {
		go d.loop()
	} else {
		close(d.loopDone)
	}
	return d, nil
}

// loop is the wall-clock slot ticker.
func (d *Daemon) loop() {
	defer close(d.loopDone)
	t := time.NewTicker(d.opts.SlotInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if _, err := d.Tick(); err != nil {
				// A failed solve leaves the books intact for the next tick;
				// surface it on the error counter rather than crashing the
				// clock.
				d.metrics.tickErrors.Add(1)
			}
		}
	}
}

// SchedulerName reports which solver stack serves the ticks.
func (d *Daemon) SchedulerName() string { return d.sched.Name() }

// Join registers a peer (idempotent; re-joining updates the ISP).
func (d *Daemon) Join(p isp.PeerID, ispID isp.ID) error {
	if p < 0 {
		return fmt.Errorf("service: negative peer id %d", p)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known := d.peers[p]; !known {
		d.totals.Joins++
		d.metrics.joins.Add(1)
	}
	d.peers[p] = peerInfo{ISP: ispID}
	d.metrics.peers.Set(float64(len(d.peers)))
	return nil
}

// Leave deregisters a peer and drops its pending offer and bids.
func (d *Daemon) Leave(p isp.PeerID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known := d.peers[p]; !known {
		return fmt.Errorf("service: unknown peer %d", p)
	}
	delete(d.peers, p)
	delete(d.grants, p)
	if i, ok := d.offerIdx[p]; ok {
		// Keep book order stable for determinism: mark the slot dead with
		// a negative capacity; buildInstance skips it.
		d.offers[i].Capacity = -1
		delete(d.offerIdx, p)
	}
	for i := range d.bids {
		if d.bids[i].Peer == p {
			d.bids[i].Peer = -1 // tombstone; compacted at tick
			delete(d.bidIdx, bidKey{peer: p, chunk: d.bids[i].Chunk})
		}
	}
	d.totals.Leaves++
	d.metrics.leaves.Add(1)
	d.metrics.peers.Set(float64(len(d.peers)))
	return nil
}

// ErrOverloaded is returned by Bid and Offer when the corresponding book is
// at its configured bound (Options.MaxPendingBids/MaxPendingOffers). The
// HTTP layer maps it to 429 with a Retry-After header; clients back off and
// retry after the next tick drains the books.
var ErrOverloaded = errors.New("service: book full, retry after the next tick")

// shedLocked records one load-shed refusal and returns ErrOverloaded.
func (d *Daemon) shedLocked() error {
	d.totals.ShedRequests++
	d.metrics.shedRequests.Add(1)
	return ErrOverloaded
}

// Offer posts (or replaces) a peer's bandwidth offer for the next slot.
func (d *Daemon) Offer(p isp.PeerID, capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("service: offer capacity must be positive, got %d", capacity)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known := d.peers[p]; !known {
		return fmt.Errorf("service: unknown peer %d (join first)", p)
	}
	if i, ok := d.offerIdx[p]; ok {
		d.offers[i].Capacity = capacity
		return nil
	}
	if max := d.opts.MaxPendingOffers; max > 0 && len(d.offers) >= max {
		// Tombstoned rows count toward the bound: it caps book memory, not
		// just live entries.
		return d.shedLocked()
	}
	d.offerIdx[p] = len(d.offers)
	d.offers = append(d.offers, sched.Uploader{Peer: p, Capacity: capacity})
	return nil
}

// BidRequest is one chunk wish inside a Bid call.
type BidRequest struct {
	Chunk      video.ChunkID
	Value      float64
	Deadline   float64
	Candidates []sched.Candidate
}

// Bid posts a batch of chunk bids for the next slot. A re-bid for the same
// chunk replaces the earlier bid. Candidates referencing uploaders that have
// not offered by tick time are dropped at tick time (counted as rejected if
// the whole bid starves). The batch is booked whole or not at all: one bid
// with no candidates, an uploader named twice, or a non-finite value − cost
// refuses all of it.
func (d *Daemon) Bid(p isp.PeerID, reqs []BidRequest) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, known := d.peers[p]; !known {
		return fmt.Errorf("service: unknown peer %d (join first)", p)
	}
	for i := range reqs {
		if err := checkBid(&reqs[i]); err != nil {
			return err
		}
	}
	if max := d.opts.MaxPendingBids; max > 0 {
		fresh := 0
		for _, r := range reqs {
			if _, ok := d.bidIdx[bidKey{peer: p, chunk: r.Chunk}]; !ok {
				fresh++
			}
		}
		if fresh > 0 && len(d.bids)+fresh > max {
			// The whole batch sheds: partial acceptance would leave the
			// client guessing which chunks are booked.
			return d.shedLocked()
		}
	}
	for _, r := range reqs {
		k := bidKey{peer: p, chunk: r.Chunk}
		i, ok := d.bidIdx[k]
		if !ok {
			i = len(d.bids)
			d.bidIdx[k] = i
			d.bids = append(d.bids, sched.Request{})
		}
		d.bids[i] = sched.Request{Peer: p, Chunk: r.Chunk, Value: r.Value, Deadline: r.Deadline,
			Candidates: d.bookCandidates(d.bids[i].Candidates, r.Candidates)}
		d.totals.Bids++
	}
	d.metrics.bids.Add(uint64(len(reqs)))
	return nil
}

// bookCandidates copies cs into the candidate arena and returns its window.
// old is the key's current window (empty for a fresh key): a list that fits
// its capacity overwrites it in place, and a longer one replaces it, growing
// in place when old is the newest window in the arena.
func (d *Daemon) bookCandidates(old, cs []sched.Candidate) []sched.Candidate {
	if len(cs) <= cap(old) {
		return append(old[:0], cs...)
	}
	if n := len(d.cands) - cap(old); cap(old) > 0 && n >= 0 && &d.cands[n] == &old[:1][0] {
		d.cands = d.cands[:n]
	}
	lo := len(d.cands)
	d.cands = append(d.cands, cs...)
	return d.cands[lo:len(d.cands):len(d.cands)]
}

// checkBid rejects a bid the slot solver would refuse. It allocates only to
// report an error or to check a candidate list too long to scan pairwise.
func checkBid(r *BidRequest) error {
	if len(r.Candidates) == 0 {
		return fmt.Errorf("service: bid for %v names no candidate uploaders", r.Chunk)
	}
	for _, c := range r.Candidates {
		if w := r.Value - c.Cost; math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("service: bid for %v has non-finite value - cost toward uploader %d", r.Chunk, c.Peer)
		}
	}
	if p, dup := repeatedPeer(r.Candidates); dup {
		return fmt.Errorf("service: bid for %v names uploader %d twice", r.Chunk, p)
	}
	return nil
}

// repeatedPeer finds an uploader named twice in a candidate list: pairwise
// for short lists, through a sorted copy for long ones, so a hostile body
// cannot make validation quadratic.
func repeatedPeer(cs []sched.Candidate) (isp.PeerID, bool) {
	if len(cs) <= 32 {
		for i := 1; i < len(cs); i++ {
			for _, prev := range cs[:i] {
				if prev.Peer == cs[i].Peer {
					return prev.Peer, true
				}
			}
		}
		return 0, false
	}
	peers := make([]isp.PeerID, len(cs))
	for i, c := range cs {
		peers[i] = c.Peer
	}
	slices.Sort(peers)
	for i := 1; i < len(peers); i++ {
		if peers[i] == peers[i-1] {
			return peers[i], true
		}
	}
	return 0, false
}

// Grants returns the peer's grants from the most recently solved slot.
func (d *Daemon) Grants(p isp.PeerID) (slot int64, gs []Grant) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.grantSlot, append([]Grant(nil), d.grants[p]...)
}

// appendGrants appends peer p's /v1/grants answer to b straight from the
// grant book (appendGrantsBody).
func (d *Daemon) appendGrants(b []byte, p isp.PeerID) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return appendGrantsBody(b, d.grantSlot, d.grants[p])
}

// Slot returns the current slot number (ticks completed since start,
// including restored snapshot ticks).
func (d *Daemon) Slot() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.slot
}

// StatsSnapshot is the daemon's observable state, served by /v1/stats.
type StatsSnapshot struct {
	Scheduler     string  `json:"scheduler"`
	Slot          int64   `json:"slot"`
	Peers         int     `json:"peers"`
	PendingBids   int     `json:"pending_bids"`
	PendingOffers int     `json:"pending_offers"`
	Totals        Totals  `json:"totals"`
	LastWelfare   float64 `json:"last_welfare"`
	LastGrants    int     `json:"last_grants"`
	LastShards    int     `json:"last_shards"`
	LastSolveMs   float64 `json:"last_solve_ms"`
	// ConsecutiveOverruns is the live degraded streak (0 = solves are
	// landing within their deadline); the alarm input the runbook names.
	ConsecutiveOverruns int     `json:"consecutive_overruns"`
	UptimeSec           float64 `json:"uptime_sec"`
	// Runtime memory stats, for soak-profile leak checks.
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	HeapObjects     uint64 `json:"heap_objects"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	NumGoroutine    int    `json:"num_goroutine"`
}

// Stats returns the current observable state.
func (d *Daemon) Stats() StatsSnapshot {
	d.mu.Lock()
	s := StatsSnapshot{
		Scheduler:           d.sched.Name(),
		Slot:                d.slot,
		Peers:               len(d.peers),
		PendingBids:         len(d.bidIdx),
		PendingOffers:       len(d.offerIdx),
		Totals:              d.totals,
		LastWelfare:         d.last.Welfare,
		LastGrants:          d.last.Grants,
		LastShards:          d.last.Shards,
		LastSolveMs:         float64(d.last.Solve) / float64(time.Millisecond),
		ConsecutiveOverruns: d.overruns,
		UptimeSec:           time.Since(d.started).Seconds(),
	}
	d.mu.Unlock()
	fillMemStats(&s)
	return s
}

// Tick drains the bid/offer books into one instance, solves it and publishes
// the grants. Explicit calls compose with the wall clock (each call is one
// complete slot); trace replays and tests run with SlotInterval 0 and call
// Tick directly.
func (d *Daemon) Tick() (TickResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tickLocked()
}

func (d *Daemon) tickLocked() (TickResult, error) {
	// Ticks run one at a time under d.mu, so the daemon track needs no
	// sharing; HTTP request spans go to their own shared track (http.go).
	tk := obs.TrackFor("daemon")
	tsp := tk.Begin("tick")
	defer func() { d.tickSeq.Add(1) }()
	if d.opts.SolveDeadline > 0 {
		*d.deadline = time.Now().Add(d.opts.SolveDeadline)
	}
	in, rejected, err := d.buildInstance()
	if err != nil {
		tsp.End()
		return TickResult{}, err
	}
	start := time.Now()
	ssp := tk.Begin("solve")
	res, err := d.sched.Schedule(in)
	solve := time.Since(start)
	if err != nil {
		tsp.End()
		return TickResult{}, fmt.Errorf("service: slot %d solve: %w", d.slot, err)
	}
	gap, degraded := res.Stats["gap"], res.Stats["stopped"] > 0
	if tk != nil {
		ssp.Arg("bids", res.Stats["bids"]).
			Arg("iterations", res.Stats["iterations"]).
			Arg("gap", gap)
	}
	ssp.End()

	welfare, err := in.Welfare(res.Grants)
	if err != nil {
		tsp.End()
		return TickResult{}, fmt.Errorf("service: slot %d welfare: %w", d.slot, err)
	}
	// Publish per-peer grants.
	for p, gs := range d.grants {
		d.grants[p] = gs[:0]
	}
	for _, g := range res.Grants {
		req := &in.Requests[g.Request]
		d.grants[req.Peer] = append(d.grants[req.Peer],
			Grant{Chunk: req.Chunk, Uploader: g.Uploader, Price: res.Prices[g.Uploader]})
	}
	d.grantSlot = d.slot

	tr := TickResult{
		Slot:      d.slot,
		Requests:  len(in.Requests),
		Uploaders: len(in.Uploaders),
		Grants:    len(res.Grants),
		Rejected:  rejected,
		Welfare:   welfare,
		Shards:    int(res.Stats["shards"]),
		Solve:     solve,
		Gap:       gap,
		Degraded:  degraded,
	}
	d.slot++
	d.last = tr
	d.totals.Ticks++
	d.totals.Grants += int64(tr.Grants)
	d.totals.BidsRejected += int64(rejected)
	d.totals.Welfare += welfare
	if degraded {
		d.totals.DegradedSlots++
		d.overruns++
	} else {
		d.overruns = 0
	}

	// Drain the books: every tick is one auction round; peers re-offer and
	// re-bid each round (the load generator and the trace replayer both do).
	d.offers = d.offers[:0]
	for p := range d.offerIdx {
		delete(d.offerIdx, p)
	}
	d.bids = d.bids[:0]
	for k := range d.bidIdx {
		delete(d.bidIdx, k)
	}
	d.cands = d.cands[:0]

	m := d.metrics
	m.ticks.Add(1)
	m.slot.Set(float64(d.slot))
	m.rejectsTotal.Add(uint64(rejected))
	m.lastWelfare.Set(welfare)
	m.lastGap.Set(gap)
	m.welfareTotal.Add(welfare)
	m.shards.Set(float64(tr.Shards))
	m.solveSeconds.Observe(solve.Seconds())
	m.grantsTotal.Add(uint64(tr.Grants))
	m.observeSolve(res.Stats)
	if degraded {
		m.degradedSlots.Add(1)
	}
	m.overrunStreak.Set(float64(d.overruns))
	if tk != nil {
		tsp.Arg("slot", float64(tr.Slot)).
			Arg("requests", float64(tr.Requests)).
			Arg("uploaders", float64(tr.Uploaders)).
			Arg("grants", float64(tr.Grants)).
			Arg("rejected", float64(rejected)).
			Arg("welfare", welfare)
	}

	// Periodic snapshot, then the kill point — in that order, so a
	// KillAfterTicks drill with SnapshotEvery=1 restores at the kill tick.
	if d.opts.SnapshotPath != "" && d.opts.SnapshotEvery > 0 &&
		d.totals.Ticks%int64(d.opts.SnapshotEvery) == 0 {
		if werr := d.writeSnapshotLocked(d.opts.SnapshotPath); werr != nil {
			d.metrics.tickErrors.Add(1)
		}
	}
	if ka := d.opts.Fault.KillAfterTicks; ka > 0 && d.totals.Ticks >= int64(ka) {
		d.killOnce.Do(func() { close(d.killed) })
	}
	tsp.End()
	return tr, nil
}

// KillPoint returns a channel that closes when Options.Fault.KillAfterTicks
// trips. The daemon only signals; the operator exits without draining — the
// SIGKILL-equivalent the crash-recovery drill restores from.
func (d *Daemon) KillPoint() <-chan struct{} { return d.killed }

// buildInstance replays the books into the kept builder: tombstoned offers
// are skipped, bid candidate lists filter down to uploaders that actually
// offered, and bids left with no live candidate drop (counted as rejected).
// Book order is submission order throughout, so a deterministic client drives
// a deterministic instance sequence — the property the e2e golden leans on.
// The instance is valid until the next tick's build.
func (d *Daemon) buildInstance() (*sched.Instance, int, error) {
	b := d.builder
	b.Begin()
	d.upRow = d.upRow[:0]
	for _, u := range d.offers {
		row := int32(-1)
		if u.Capacity > 0 { // else a tombstone from Leave
			var err error
			if row, err = b.AddUploader(u.Peer, u.Capacity); err != nil {
				_, _ = b.Build() // close the round; the error is AddUploader's
				return nil, 0, fmt.Errorf("service: building slot instance: %w", err)
			}
		}
		d.upRow = append(d.upRow, row)
	}
	rejected := 0
	for _, r := range d.bids {
		if r.Peer < 0 { // tombstone from Leave
			continue
		}
		b.StartRequest(r.Peer, r.Chunk, r.Value, r.Deadline)
		live := false
		for _, c := range r.Candidates {
			if i, ok := d.offerIdx[c.Peer]; ok {
				b.AddCandidate(d.upRow[i], c.Cost)
				live = true
			}
		}
		b.EndRequest() // drops a request with no live candidate
		if !live {
			rejected++
		}
	}
	in, err := b.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("service: building slot instance: %w", err)
	}
	return in, rejected, nil
}

// Drain gracefully stops the daemon: halt the slot clock, solve any
// outstanding bids in one final tick, and write the state snapshot when
// configured. Safe to call once; the HTTP layer keeps answering reads until
// the caller shuts it down.
func (d *Daemon) Drain() error {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.loopDone
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return nil
	}
	d.draining = true
	var err error
	if len(d.bidIdx) > 0 || len(d.offerIdx) > 0 {
		_, err = d.tickLocked()
	}
	if d.opts.SnapshotPath != "" {
		if werr := d.writeSnapshotLocked(d.opts.SnapshotPath); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// Close stops the clock without draining or snapshotting.
func (d *Daemon) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.loopDone
}

// Snapshot is the JSON state image Drain writes and New restores: the
// registration set and cumulative counters. Every tick solves cold from
// λ = 0, so there is no solver state to keep; what must survive a restart
// is the identity of the swarm and the continuity of the slot counter.
type Snapshot struct {
	Taken  time.Time   `json:"taken"`
	Slot   int64       `json:"slot"`
	Totals Totals      `json:"totals"`
	Peers  []SnapPeer  `json:"peers"`
	Prices []SnapPrice `json:"prices,omitempty"`
}

// SnapPeer is one registered peer in a snapshot.
type SnapPeer struct {
	Peer int64 `json:"peer"`
	ISP  int   `json:"isp"`
}

// SnapPrice records an uploader's closing λ_u at drain time (diagnostic:
// operators can compare price levels across restarts).
type SnapPrice struct {
	Peer  int64   `json:"peer"`
	Price float64 `json:"price"`
}

func (d *Daemon) snapshotLocked() Snapshot {
	s := Snapshot{Taken: time.Now(), Slot: d.slot, Totals: d.totals}
	for p, info := range d.peers {
		s.Peers = append(s.Peers, SnapPeer{Peer: int64(p), ISP: int(info.ISP)})
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Peer < s.Peers[j].Peer })
	seen := make(map[isp.PeerID]bool)
	for _, gs := range d.grants {
		for _, g := range gs {
			if !seen[g.Uploader] {
				seen[g.Uploader] = true
				s.Prices = append(s.Prices, SnapPrice{Peer: int64(g.Uploader), Price: g.Price})
			}
		}
	}
	sort.Slice(s.Prices, func(i, j int) bool { return s.Prices[i].Peer < s.Prices[j].Peer })
	return s
}

func (d *Daemon) writeSnapshotLocked(path string) error {
	data, err := json.MarshalIndent(d.snapshotLocked(), "", "  ")
	if err != nil {
		return fmt.Errorf("service: encoding snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("service: writing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("service: committing snapshot: %w", err)
	}
	return nil
}

// restoreSnapshot loads a snapshot file if present (a missing file is a
// clean first start, not an error).
func (d *Daemon) restoreSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: reading snapshot: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("service: decoding snapshot %s: %w", path, err)
	}
	// A snapshot that decodes but says nonsense (hand-edited, torn write on
	// a filesystem without atomic rename) must fail startup cleanly rather
	// than seed the daemon with impossible counters.
	if s.Slot < 0 {
		return fmt.Errorf("service: snapshot %s: negative slot %d", path, s.Slot)
	}
	if s.Totals.Ticks < 0 || s.Totals.Grants < 0 || s.Totals.Bids < 0 {
		return fmt.Errorf("service: snapshot %s: negative totals %+v", path, s.Totals)
	}
	for _, p := range s.Peers {
		if p.ISP < 0 {
			return fmt.Errorf("service: snapshot %s: peer %d with negative ISP %d", path, p.Peer, p.ISP)
		}
	}
	d.slot = s.Slot
	d.totals = s.Totals
	for _, p := range s.Peers {
		d.peers[isp.PeerID(p.Peer)] = peerInfo{ISP: isp.ID(p.ISP)}
	}
	d.metrics.peers.Set(float64(len(d.peers)))
	d.metrics.slot.Set(float64(d.slot))
	return nil
}
