// Package service stands the auction up as a long-running scheduler daemon:
// the online counterpart of the batch simulators. Peers register, submit
// bandwidth offers and chunk bids over an HTTP/JSON API (http.go); slots tick
// on a wall clock (or on demand); every tick drains the current bid book into
// one sched.Instance and solves it with the persistent warm solver stack
// (sched.WarmAuction, or cluster.ShardedAuction when sharding is enabled), so
// prices and partial assignments carry across rounds exactly as they do in
// the simulators. Grants are held for polling until the next tick overwrites
// them; /metrics exports Prometheus-format counters, gauges and solve-latency
// histograms (metrics.go); Drain stops the clock, solves the outstanding book
// and writes a JSON state snapshot for the next process.
//
// The daemon deliberately reuses the exact scheduler implementations the
// simulators run: a trace of ticks fed the same instances produces the same
// grants, which is what the end-to-end golden test pins (welfare of a
// daemon-served trace equals the equivalent internal/sim run within the
// ε-certificate band).
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
	// Sharded switches the slot scheduler from the monolithic warm auction
	// to the sharded swarm orchestrator (cluster.ShardedAuction).
	Sharded bool
	// ShardWorkers bounds concurrent shard solves (0 or 1 = sequential).
	ShardWorkers int
	// MaxShardPeers enables ISP-affinity refinement of oversized components
	// (0 = never refine; the partition stays exact).
	MaxShardPeers int
	// SnapshotPath, when non-empty, is where Drain writes the JSON state
	// snapshot, and where New restores one from if the file exists.
	SnapshotPath string
	// SnapshotEvery additionally writes the snapshot every N completed ticks
	// (0 = only on Drain). With a small N the daemon survives a SIGKILL with
	// at most N ticks of counter drift — the crash-recovery golden runs at 1.
	SnapshotEvery int

	// SolveDeadline bounds each tick's solve wall-clock time. 0 disables the
	// deadline (every solve runs to completion under the tick lock). With a
	// deadline, an overrunning warm solve keeps running in the background
	// while the tick degrades gracefully: previous grants are carried and the
	// slot is marked degraded; after GreedyAfter consecutive overruns the
	// tick escalates to the bounded sched.Greedy fallback; once the warm
	// solve returns, the next tick re-converges warm.
	SolveDeadline time.Duration
	// GreedyAfter is K, the consecutive-overrun count at which degraded
	// ticks escalate from carrying grants to the greedy fallback scheduler.
	// 0 = never escalate (carry only).
	GreedyAfter int

	// MaxPendingBids/MaxPendingOffers bound the books between ticks:
	// submissions past the bound fail with ErrOverloaded, which the HTTP
	// layer maps to 429 + Retry-After. 0 = unbounded.
	MaxPendingBids   int
	MaxPendingOffers int

	// Fault wires the deterministic fault layer into the daemon for staging
	// drills: SolveDelay/SolveDelayEveryN wrap the solver (forcing deadline
	// overruns on demand) and KillAfterTicks trips the kill point — a signal
	// the operator (cmd/schedulerd) answers by exiting without draining, the
	// SIGKILL-equivalent the recovery golden restores from. The zero value
	// changes nothing.
	Fault fault.Spec
}

// DefaultOptions returns the daemon defaults: the paper's ε, a 1-second
// slot clock, monolithic warm solver.
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
	// DegradedSlots counts ticks that missed the solve deadline and fell
	// back (carried grants or greedy); ShedRequests counts Bid/Offer calls
	// refused with ErrOverloaded. Both zero unless the corresponding
	// Options bounds are set.
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
	// Degraded marks a slot whose warm solve missed the deadline; Greedy
	// additionally marks that the slot escalated to the fallback scheduler
	// (otherwise a degraded slot carried the previous grants).
	Degraded bool
	Greedy   bool
}

// Daemon is the live scheduler: one persistent warm solver behind a
// registration/bid/grant state machine. All methods are safe for concurrent
// use. Create with New, stop with Drain (or Close to skip the final solve).
type Daemon struct {
	opts  Options
	sched sched.Scheduler

	mu       sync.Mutex
	peers    map[isp.PeerID]peerInfo
	offers   []sched.Uploader
	offerIdx map[isp.PeerID]int
	bids     []sched.Request
	bidIdx   map[bidKey]int
	// grants holds the last solved slot's per-peer grants; grantSlot is the
	// slot they belong to.
	grants    map[isp.PeerID][]Grant
	grantSlot int64
	slot      int64
	totals    Totals
	last      TickResult
	started   time.Time
	draining  bool

	// Degradation state (SolveDeadline > 0 only): inflight closes when a warm
	// solve that overran its deadline, still running off-lock, returns;
	// overruns counts consecutive degraded ticks and resets when a solve
	// lands in time.
	inflight chan struct{}
	overruns int

	// ispOf mirrors peers' ISP assignments for the sharded solver's lookup.
	// An overrunning solve outlives the tick's critical section, so the
	// lookup cannot read d.peers lock-free; the mirror has its own lock.
	// Nil unless Sharded.
	ispMu sync.RWMutex
	ispOf map[isp.PeerID]isp.ID

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
	if opts.GreedyAfter < 0 {
		return nil, fmt.Errorf("service: negative greedy-after %d", opts.GreedyAfter)
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
		grants:   make(map[isp.PeerID][]Grant),
		started:  time.Now(),
		killed:   make(chan struct{}),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		metrics:  newDaemonMetrics(),
	}
	if opts.Sharded {
		d.ispOf = make(map[isp.PeerID]isp.ID)
		sa := &cluster.ShardedAuction{
			Epsilon:       opts.Epsilon,
			Workers:       opts.ShardWorkers,
			MaxShardPeers: opts.MaxShardPeers,
		}
		// With a solve deadline an overrunning Schedule outlives the tick's
		// critical section, so the lookup reads the dedicated ISP mirror
		// under its own lock instead of d.peers.
		sa.SetISPLookup(func(p isp.PeerID) (isp.ID, bool) {
			d.ispMu.RLock()
			id, ok := d.ispOf[p]
			d.ispMu.RUnlock()
			return id, ok
		})
		d.sched = sa
	} else {
		d.sched = &sched.WarmAuction{Epsilon: opts.Epsilon}
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
	if d.ispOf != nil {
		d.ispMu.Lock()
		d.ispOf[p] = ispID
		d.ispMu.Unlock()
	}
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
	if d.ispOf != nil {
		d.ispMu.Lock()
		delete(d.ispOf, p)
		d.ispMu.Unlock()
	}
	if i, ok := d.offerIdx[p]; ok {
		// Keep book order stable for determinism: mark the slot dead by
		// zeroing capacity; buildInstance compacts it away.
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
		req := sched.Request{
			Peer:       p,
			Chunk:      r.Chunk,
			Value:      r.Value,
			Deadline:   r.Deadline,
			Candidates: append([]sched.Candidate(nil), r.Candidates...),
		}
		if i, ok := d.bidIdx[k]; ok {
			d.bids[i] = req
		} else {
			d.bidIdx[k] = len(d.bids)
			d.bids = append(d.bids, req)
		}
		d.totals.Bids++
	}
	d.metrics.bids.Add(uint64(len(reqs)))
	return nil
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
	// ConsecutiveOverruns is the live degraded streak (0 = warm solves are
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
	in, rejected, err := d.buildInstance()
	if err != nil {
		tsp.End()
		return TickResult{}, err
	}
	start := time.Now()
	ssp := tk.Begin("solve")
	res, degraded, usedGreedy, err := d.solveLocked(in)
	solve := time.Since(start)
	if err != nil {
		tsp.End()
		return TickResult{}, fmt.Errorf("service: slot %d solve: %w", d.slot, err)
	}
	if tk != nil && res != nil && res.Stats != nil {
		ssp.Arg("bids", res.Stats["bids"]).
			Arg("iterations", res.Stats["iterations"]).
			Arg("sweep_passes", res.Stats["sweep_passes"])
	}
	ssp.End()

	var welfare float64
	grantCount := 0
	if res != nil {
		welfare, err = in.Welfare(res.Grants)
		if err != nil {
			tsp.End()
			return TickResult{}, fmt.Errorf("service: slot %d welfare: %w", d.slot, err)
		}
		// Publish per-peer grants.
		for p := range d.grants {
			delete(d.grants, p)
		}
		for _, g := range res.Grants {
			req := &in.Requests[g.Request]
			price := 0.0
			if res.Prices != nil {
				price = res.Prices[g.Uploader]
			}
			d.grants[req.Peer] = append(d.grants[req.Peer],
				Grant{Chunk: req.Chunk, Uploader: g.Uploader, Price: price})
		}
		grantCount = len(res.Grants)
	} else {
		// Degraded carry: the previous slot's grants stay published for this
		// slot (welfare 0 — nothing new was scheduled), and this tick's bids
		// drain unserved below. Clients re-bid next round anyway.
		for _, gs := range d.grants {
			grantCount += len(gs)
		}
	}
	d.grantSlot = d.slot

	tr := TickResult{
		Slot:      d.slot,
		Requests:  len(in.Requests),
		Uploaders: len(in.Uploaders),
		Grants:    grantCount,
		Rejected:  rejected,
		Welfare:   welfare,
		Solve:     solve,
		Degraded:  degraded,
		Greedy:    usedGreedy,
	}
	if res != nil {
		if v, ok := res.Stats["shards"]; ok {
			tr.Shards = int(v)
		}
	}
	d.slot++
	d.last = tr
	d.totals.Ticks++
	if res != nil {
		// Carried grants were already counted the slot they were solved.
		d.totals.Grants += int64(grantCount)
	}
	d.totals.BidsRejected += int64(rejected)
	d.totals.Welfare += welfare
	if degraded {
		d.totals.DegradedSlots++
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

	m := d.metrics
	m.ticks.Add(1)
	m.slot.Set(float64(d.slot))
	m.rejectsTotal.Add(uint64(rejected))
	m.lastWelfare.Set(welfare)
	m.welfareTotal.Add(welfare)
	m.shards.Set(float64(tr.Shards))
	m.solveSeconds.Observe(solve.Seconds())
	if res != nil {
		// Like d.totals.Grants: a carried slot issues no new grants.
		m.grantsTotal.Add(uint64(grantCount))
		m.observeSolve(res.Stats)
	}
	if degraded {
		m.degradedSlots.Add(1)
	}
	if usedGreedy {
		m.greedyTicks.Add(1)
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

// solveOutcome carries an asynchronous solve's result.
type solveOutcome struct {
	res *sched.Result
	err error
}

// solveLocked runs the slot solve under the degradation policy. Without a
// deadline it is a plain synchronous Schedule. With one, the warm solve runs
// on a goroutine: if it lands within SolveDeadline the tick proceeds normally
// and the overrun streak resets; if not, the solve keeps running off-lock
// (recorded in d.inflight) and the tick degrades — carry the previous grants
// (res == nil), or after GreedyAfter consecutive overruns solve this tick's
// instance with the bounded greedy fallback. A finished overrun solve is
// discarded at the next tick (its instance is stale) and the warm solver is
// used again — re-convergence costs nothing because the solver kept its
// prices.
func (d *Daemon) solveLocked(in *sched.Instance) (res *sched.Result, degraded, usedGreedy bool, err error) {
	if d.opts.SolveDeadline <= 0 {
		res, err = d.sched.Schedule(in)
		return res, false, false, err
	}
	if d.inflight != nil {
		select {
		case <-d.inflight:
			// The overrunning solve finished between ticks. Its result is for
			// a drained book — discard it; the warm solver is free again.
			d.inflight = nil
		default:
		}
	}
	if d.inflight == nil {
		ch := make(chan solveOutcome, 1)
		done := make(chan struct{})
		scheduler := d.sched
		go func() {
			r, e := scheduler.Schedule(in)
			ch <- solveOutcome{res: r, err: e}
			close(done)
		}()
		timer := time.NewTimer(d.opts.SolveDeadline)
		select {
		case out := <-ch:
			timer.Stop()
			d.overruns = 0
			return out.res, false, false, out.err
		case <-timer.C:
			d.inflight = done
		}
	}
	// Degraded slot: the warm solver is busy (overran just now, or still
	// catching up from an earlier overrun).
	d.overruns++
	d.metrics.solveOverruns.Add(1)
	if d.opts.GreedyAfter > 0 && d.overruns >= d.opts.GreedyAfter {
		res, err = sched.Greedy{}.Schedule(in)
		return res, true, true, err
	}
	return nil, true, false, nil
}

// KillPoint returns a channel that closes when Options.Fault.KillAfterTicks
// trips. The daemon only signals; the operator exits without draining — the
// SIGKILL-equivalent the crash-recovery drill restores from.
func (d *Daemon) KillPoint() <-chan struct{} { return d.killed }

// buildInstance turns the books into a solvable instance: tombstoned offers
// compact away, bid candidate lists filter down to uploaders that actually
// offered, and bids left with no live candidate drop (counted as rejected).
// Book order is submission order throughout, so a deterministic client drives
// a deterministic instance sequence — the property the e2e golden leans on.
func (d *Daemon) buildInstance() (*sched.Instance, int, error) {
	uploaders := make([]sched.Uploader, 0, len(d.offers))
	offered := make(map[isp.PeerID]bool, len(d.offers))
	for _, u := range d.offers {
		if u.Capacity <= 0 { // tombstone from Leave
			continue
		}
		uploaders = append(uploaders, u)
		offered[u.Peer] = true
	}
	requests := make([]sched.Request, 0, len(d.bids))
	rejected := 0
	for _, r := range d.bids {
		if r.Peer < 0 { // tombstone from Leave
			continue
		}
		keep := r.Candidates[:0] // filter in place; the book drains after the tick
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
		requests = append(requests, r)
	}
	in, err := sched.NewInstance(requests, uploaders)
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
	// Let any overrunning solve land first, so the final drain tick gets the
	// warm solver and shutdown leaves no goroutine behind.
	d.awaitInflightLocked()
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

// awaitInflightLocked blocks until an overrunning solve (if any) returns,
// discarding its stale result and resetting the overrun streak.
func (d *Daemon) awaitInflightLocked() {
	if d.inflight != nil {
		<-d.inflight
		d.inflight = nil
		d.overruns = 0
	}
}

// Close stops the clock without draining or snapshotting.
func (d *Daemon) Close() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.loopDone
	d.mu.Lock()
	d.awaitInflightLocked()
	d.mu.Unlock()
}

// Snapshot is the JSON state image Drain writes and New restores: the
// registration set and cumulative counters. Solver price state deliberately
// stays out — the warm solver re-converges from λ = 0 within a tick, and the
// ε-CS certificate makes the result equivalent; what must survive a restart
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

// SnapshotState captures the current state image.
func (d *Daemon) SnapshotState() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
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
		if d.ispOf != nil {
			d.ispOf[isp.PeerID(p.Peer)] = isp.ID(p.ISP)
		}
	}
	d.metrics.peers.Set(float64(len(d.peers)))
	d.metrics.slot.Set(float64(d.slot))
	return nil
}
