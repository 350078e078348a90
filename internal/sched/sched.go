// Package sched defines the slot-level chunk-scheduling interface shared by
// every strategy in the evaluation: the auction (the paper's algorithm, one
// fresh auction per slot, as Auction), the exact min-cost-flow optimum
// (Exact), the Simple Locality baseline, the network-agnostic random
// baseline (both in internal/baseline), and the sharded orchestrator (internal/cluster's
// ShardedAuction, which partitions a slot into independent swarm components
// and solves them concurrently, each as a View of the slot). A strategy receives one
// slot's Instance — requests with valuations and deadlines, candidate
// uploaders with network costs, uploader capacities — and returns the set of
// grants. The simulator computes welfare, inter-ISP traffic and miss metrics
// uniformly from the grants, so strategies compete on identical terms.
package sched

import (
	"fmt"
	"sync"

	"repro/internal/isp"
	"repro/internal/video"
)

// Candidate is an uploader able to serve a request, with the network cost
// w_{u→d} of the transfer.
type Candidate struct {
	Peer isp.PeerID
	Cost float64
}

// Request is one (peer, chunk) download wish for the slot.
type Request struct {
	Peer       isp.PeerID
	Chunk      video.ChunkID
	Value      float64 // v_c(d), deadline-based valuation
	Deadline   float64 // seconds from slot start until playback needs it
	Candidates []Candidate
}

// Uploader is a peer selling upload bandwidth this slot.
type Uploader struct {
	Peer     isp.PeerID
	Capacity int // B(u): chunks it can upload this slot
}

// Instance is one slot's complete scheduling problem.
//
// Besides the public requests and uploaders, every instance carries a row
// table: for each candidate edge, the dense index of its uploader in
// Uploaders, read through Rows. Every per-edge consumer (the problem build,
// the partitioners, the baseline passes, grant validation) reads rows and
// never resolves a PeerID. Instances come from three producers that all fill
// the table: NewInstance resolves each candidate once in the validation pass
// it makes anyway (the general path: tests, Clone, the daemon); Subset maps
// its parent's rows through a scratch table; Builder maintains one
// persistent instance across rounds, takes each candidate's row from the
// producer and reuses every backing array, so steady-state rounds allocate
// nothing (see builder.go). A builder-produced instance is valid until the
// builder's next Build. The table describes the candidate lists as built: an
// instance's Candidates must not be edited afterwards.
type Instance struct {
	Requests  []Request
	Uploaders []Uploader

	// rows[rowOff[ri]:rowOff[ri+1]] are request ri's candidate uploader
	// rows, aligned with Requests[ri].Candidates.
	rows   []int32
	rowOff []int32

	// UploaderIndex's PeerID lookup, for callers keyed by peer:
	// uploaderIdx is NewInstance's per-instance map; slotOf/slotRow are the
	// Builder's two-level index, a persistent peer→slot map (touched only by
	// uploader churn) plus a per-round slot→row array. A Subset instance
	// has neither.
	uploaderIdx map[isp.PeerID]int
	slotOf      map[isp.PeerID]int32
	slotRow     []int32
}

// NewInstance builds an instance, indexes the uploaders and resolves every
// candidate to its uploader row. Duplicate uploaders and candidates naming
// an unknown uploader are rejected.
func NewInstance(requests []Request, uploaders []Uploader) (*Instance, error) {
	idx, err := indexUploaders(uploaders)
	if err != nil {
		return nil, err
	}
	return newInstance(requests, uploaders, idx)
}

// indexUploaders maps each uploader's peer to its row, rejecting duplicate
// uploaders and negative capacities.
func indexUploaders(uploaders []Uploader) (map[isp.PeerID]int, error) {
	idx := make(map[isp.PeerID]int, len(uploaders))
	for i, u := range uploaders {
		if _, dup := idx[u.Peer]; dup {
			return nil, fmt.Errorf("sched: duplicate uploader %d", u.Peer)
		}
		if u.Capacity < 0 {
			return nil, fmt.Errorf("sched: uploader %d has negative capacity", u.Peer)
		}
		idx[u.Peer] = i
	}
	return idx, nil
}

// newInstance fills the row table through the uploader index idx, in the
// validation pass over every candidate: the one place a non-Builder
// instance resolves PeerIDs to rows.
func newInstance(requests []Request, uploaders []Uploader, idx map[isp.PeerID]int) (*Instance, error) {
	edges := 0
	for ri := range requests {
		edges += len(requests[ri].Candidates)
	}
	// One allocation holds both tables: the per-request offsets, then the
	// rows.
	table := make([]int32, len(requests)+1+edges)
	rowOff, rows := table[:len(requests)+1], table[len(requests)+1:]
	n := 0
	for ri, r := range requests {
		for _, c := range r.Candidates {
			ui, ok := idx[c.Peer]
			if !ok {
				return nil, fmt.Errorf("sched: request %d references unknown uploader %d", ri, c.Peer)
			}
			rows[n] = int32(ui)
			n++
		}
		rowOff[ri+1] = int32(n)
	}
	return &Instance{Requests: requests, Uploaders: uploaders, rows: rows, rowOff: rowOff, uploaderIdx: idx}, nil
}

// Rows returns request ri's candidate uploader rows: Rows(ri)[k] is the
// index in Uploaders of Requests[ri].Candidates[k].Peer. The slice is
// read-only.
func (in *Instance) Rows(ri int) []int32 {
	lo, hi := in.rowOff[ri], in.rowOff[ri+1]
	return in.rows[lo:hi:hi]
}

// UploaderIndex returns the dense index of uploader p. It is for callers
// keyed by PeerID; per-edge loops read Rows instead.
func (in *Instance) UploaderIndex(p isp.PeerID) (int, bool) {
	switch {
	case in.uploaderIdx != nil:
		i, ok := in.uploaderIdx[p]
		return i, ok
	case in.slotOf != nil:
		if s, ok := in.slotOf[p]; ok && int(s) < len(in.slotRow) {
			if r := in.slotRow[s]; r >= 0 {
				return int(r), true
			}
		}
		return 0, false
	}
	// A Subset instance keeps no index: scan its uploaders.
	for i := range in.Uploaders {
		if in.Uploaders[i].Peer == p {
			return i, true
		}
	}
	return 0, false
}

// Edge finds uploader p among request ri's candidates and returns its
// uploader row and the edge's network cost, from one scan of the list.
func (in *Instance) Edge(ri int, p isp.PeerID) (row int, cost float64, ok bool) {
	for k, c := range in.Requests[ri].Candidates {
		if c.Peer == p {
			return int(in.Rows(ri)[k]), c.Cost, true
		}
	}
	return 0, 0, false
}

// Cost returns the network cost of serving request ri from uploader p.
func (in *Instance) Cost(ri int, p isp.PeerID) (float64, bool) {
	_, c, ok := in.Edge(ri, p)
	return c, ok
}

// Subset carves a sub-instance out of in: the requests and uploaders at the
// given indices, in the given order. Candidate edges to uploaders outside the
// subset are dropped (the caller decides whether that loses anything — a
// connected-component subset drops nothing by construction); a request whose
// candidate list survives intact shares the original backing array. The
// returned instance's request i is in.Requests[reqIdx[i]], so callers can map
// grants back to the parent instance. Duplicate or out-of-range indices are
// an error.
//
// Candidates resolve through the parent's row table and a parent-row →
// subset-row scratch table, so Subset hashes nothing: its cost is linear in
// the subset, whatever the parent's size, and it is safe to call
// concurrently on one parent (the sharded orchestrator hands a custom
// per-shard scheduler every shard's subset at once). The sub-instance keeps no PeerID index; its UploaderIndex scans.
func (in *Instance) Subset(reqIdx, upIdx []int) (*Instance, error) {
	subRow := getRowScratch(len(in.Uploaders))
	defer putRowScratch(subRow, upIdx)
	uploaders := make([]Uploader, 0, len(upIdx))
	for _, ui := range upIdx {
		if ui < 0 || ui >= len(in.Uploaders) {
			return nil, fmt.Errorf("sched: subset references unknown uploader index %d", ui)
		}
		if (*subRow)[ui] >= 0 {
			return nil, fmt.Errorf("sched: subset: duplicate uploader %d", in.Uploaders[ui].Peer)
		}
		(*subRow)[ui] = int32(len(uploaders))
		uploaders = append(uploaders, in.Uploaders[ui])
	}
	edges := 0
	for _, ri := range reqIdx {
		if ri < 0 || ri >= len(in.Requests) {
			return nil, fmt.Errorf("sched: subset references unknown request index %d", ri)
		}
		edges += len(in.Rows(ri))
	}
	// One allocation holds both tables, sized for the unfiltered edge count
	// (the rows beyond the kept edges stay unused).
	table := make([]int32, len(reqIdx)+1+edges)
	rowOff, rows := table[:len(reqIdx)+1], table[len(reqIdx)+1:len(reqIdx)+1]
	requests := make([]Request, 0, len(reqIdx))
	for i, ri := range reqIdx {
		r := in.Requests[ri]
		parentRows := in.Rows(ri)
		start := len(rows)
		for _, pr := range parentRows {
			if sr := (*subRow)[pr]; sr >= 0 {
				rows = append(rows, sr)
			}
		}
		if kept := len(rows) - start; kept != len(parentRows) {
			cands := make([]Candidate, 0, kept)
			for k, pr := range parentRows {
				if (*subRow)[pr] >= 0 {
					cands = append(cands, r.Candidates[k])
				}
			}
			r.Candidates = cands
		}
		requests = append(requests, r)
		rowOff[i+1] = int32(len(rows))
	}
	return &Instance{Requests: requests, Uploaders: uploaders, rows: rows, rowOff: rowOff}, nil
}

// rowScratch recycles Subset's parent-row → subset-row tables. A table
// leaves the pool all -1 and goes back all -1: Subset restores exactly the
// entries it wrote, so a shard's subset never pays for the parent's size.
var rowScratch sync.Pool

// getRowScratch returns an all -1 table of at least n entries.
func getRowScratch(n int) *[]int32 {
	t, _ := rowScratch.Get().(*[]int32)
	if t == nil {
		t = new([]int32)
	}
	if len(*t) < n {
		*t = make([]int32, n)
		for i := range *t {
			(*t)[i] = -1
		}
	}
	return t
}

// putRowScratch resets every in-range entry of upIdx — a superset of the
// entries Subset set, even when it stopped at a bad index — and returns the
// table to the pool.
func putRowScratch(t *[]int32, upIdx []int) {
	for _, ui := range upIdx {
		if ui >= 0 && ui < len(*t) {
			(*t)[ui] = -1
		}
	}
	rowScratch.Put(t)
}

// Clone returns a deep, self-contained copy of the instance: its own
// request, candidate and uploader arrays and a fresh uploader index. Use it
// when retaining an instance beyond its producer's validity window —
// Builder-produced instances reuse their backing arrays and are recycled
// two Builds later.
func (in *Instance) Clone() *Instance {
	ups := append([]Uploader(nil), in.Uploaders...)
	reqs := make([]Request, len(in.Requests))
	copy(reqs, in.Requests)
	for i := range reqs {
		reqs[i].Candidates = append([]Candidate(nil), reqs[i].Candidates...)
	}
	out, err := NewInstance(reqs, ups)
	if err != nil {
		// The source instance upheld the same invariants.
		panic(fmt.Sprintf("sched: cloning a valid instance failed: %v", err))
	}
	return out
}

// Grant assigns request index Request to uploader Uploader.
type Grant struct {
	Request  int
	Uploader isp.PeerID
}

// GrantEndpoints resolves a grant to its transfer endpoints: the uploading
// peer and the requesting (downloading) peer. It validates the grant against
// the instance — unknown request, unknown uploader, or a non-candidate edge
// are errors — so accounting layers (economics.FromGrants) can trust the
// pair without re-running Validate.
func (in *Instance) GrantEndpoints(g Grant) (up, down isp.PeerID, err error) {
	if g.Request < 0 || g.Request >= len(in.Requests) {
		return 0, 0, fmt.Errorf("sched: grant for unknown request %d", g.Request)
	}
	if _, ok := in.UploaderIndex(g.Uploader); !ok {
		return 0, 0, fmt.Errorf("sched: grant to unknown uploader %d", g.Uploader)
	}
	if _, ok := in.Cost(g.Request, g.Uploader); !ok {
		return 0, 0, fmt.Errorf("sched: grant %d→%d is not a candidate edge", g.Request, g.Uploader)
	}
	return g.Uploader, in.Requests[g.Request].Peer, nil
}

// Result is a strategy's answer for the slot.
type Result struct {
	Grants []Grant
	// Prices holds the final λ_u per uploader for price-aware strategies
	// (nil otherwise).
	Prices map[isp.PeerID]float64
	// Stats carries strategy-specific diagnostics (bids, rounds, ...).
	Stats map[string]float64
}

// Welfare computes Σ (v − w) over the grants.
func (in *Instance) Welfare(grants []Grant) (float64, error) {
	total := 0.0
	for _, g := range grants {
		if g.Request < 0 || g.Request >= len(in.Requests) {
			return 0, fmt.Errorf("sched: grant for unknown request %d", g.Request)
		}
		w, ok := in.Cost(g.Request, g.Uploader)
		if !ok {
			return 0, fmt.Errorf("sched: grant %d→%d is not a candidate edge", g.Request, g.Uploader)
		}
		total += in.Requests[g.Request].Value - w
	}
	return total, nil
}

// Validate checks grant feasibility: known requests, candidate edges, at most
// one grant per request, and uploader capacities respected.
func (in *Instance) Validate(grants []Grant) error {
	return in.Resolve(grants, make([]bool, len(in.Requests)), make([]int32, len(in.Uploaders)), nil)
}

// GrantEdge is a grant resolved against its instance: the uploader's row in
// Uploaders and the edge's network cost.
type GrantEdge struct {
	Row  int32
	Cost float64
}

// Resolve checks grant feasibility as Validate does, with its error text,
// and resolves each grant from one scan of its request's candidates: when
// edges is non-nil, edges[i] receives grants[i]'s edge. The caller owns the
// scratch and hands it in zeroed: seen must hold len(Requests) entries and
// load len(Uploaders). Resolve marks each granted request in seen and, on
// success, leaves each row's grant count in load. It allocates nothing
// itself.
func (in *Instance) Resolve(grants []Grant, seen []bool, load []int32, edges []GrantEdge) error {
	for i, g := range grants {
		if g.Request < 0 || g.Request >= len(in.Requests) {
			return fmt.Errorf("sched: grant for unknown request %d", g.Request)
		}
		if seen[g.Request] {
			return fmt.Errorf("sched: request %d granted twice", g.Request)
		}
		seen[g.Request] = true
		row, cost, ok := in.Edge(g.Request, g.Uploader)
		if !ok {
			return fmt.Errorf("sched: grant %d→%d is not a candidate edge", g.Request, g.Uploader)
		}
		load[row]++
		if edges != nil {
			edges[i] = GrantEdge{Row: int32(row), Cost: cost}
		}
	}
	for i, l := range load {
		if int(l) > in.Uploaders[i].Capacity {
			return fmt.Errorf("sched: uploader %d over capacity: %d > %d",
				in.Uploaders[i].Peer, l, in.Uploaders[i].Capacity)
		}
	}
	return nil
}

// Scheduler is a slot-scheduling strategy.
type Scheduler interface {
	// Name identifies the strategy in metrics and logs.
	Name() string
	// Schedule solves one slot.
	Schedule(in *Instance) (*Result, error)
}
