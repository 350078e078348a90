package sched

import (
	"fmt"
	"slices"

	"repro/internal/isp"
	"repro/internal/video"
)

// InstanceDelta describes how a slot instance evolved from the previous one
// the same producer built — the slot-to-slot churn a warm consumer
// (WarmAuction, cluster.ShardedAuction) can apply in O(churn) instead of
// re-diffing two full instances by key. Deltas are produced by Builder
// (every Build that follows an ordered Build returns one) and are trusted:
// consumers bounds-check the row maps but do not re-derive them. A
// Projected delta is not a Builder's, and is validated.
//
// All row references are dense indices: PrevReq[i] is the previous
// instance's row of the new instance's request i (-1 when the request is
// new this round); RemovedReqs lists previous rows with no successor, in
// ascending order. PrevUp/RemovedUps are the uploader-side counterparts.
// A carried request may change Value freely; SameCands[i] additionally
// promises its candidate list is identical (same peers, costs and order).
// A carried uploader may change Capacity freely.
type InstanceDelta struct {
	// Identity marks the steady-state shape: the same requests in the same
	// rows with identical candidate lists, the same uploaders in the same
	// rows — only values and capacities may have moved. Consumers can skip
	// the row maps entirely.
	Identity bool
	// Projected marks a delta a consumer re-derived from a producer's (the
	// sharded orchestrator projects one delta per shard, in shard-local
	// rows) instead of one a Builder merged. A warm consumer validates the
	// solver delta it issues from a projected delta (core.Solver.Apply)
	// rather than trusting it.
	Projected bool

	PrevReq     []int32
	SameCands   []bool
	RemovedReqs []int32

	PrevUp     []int32
	RemovedUps []int32
}

// DeltaScheduler is a Scheduler that can consume a caller-known
// InstanceDelta relating this instance to the previous Schedule or
// ScheduleDelta call's. Passing a nil delta must behave exactly like
// Schedule (the full-diff fallback).
type DeltaScheduler interface {
	Scheduler
	ScheduleDelta(in *Instance, d *InstanceDelta) (*Result, error)
}

// instStore is one half of the builder's double buffer: the instance plus
// the candidate arena its requests point into, the row table aligned with
// that arena and its per-request offsets. Two stores alternate so the
// previous round's instance (and every candidate slice a consumer may still
// hold from it) stays intact while the next one is built.
type instStore struct {
	inst    Instance
	arena   []Candidate
	rows    []int32
	rowOff  []int32
	slotRow []int32
}

// Builder maintains a persistent mutable Instance across scheduling rounds.
// Each round the producer replays the instance — uploaders first, then
// requests, both in ascending key order — and the builder reuses every
// backing array, maintains the uploader index incrementally, and computes
// the InstanceDelta against the previous round as a by-product of the
// ordered replay (a two-pointer merge, no hashing). The produced instance
// and delta are valid until the next Build.
//
// AddUploader returns the row it assigned, and the producer names each
// candidate by that row (AddCandidate(row, cost)), so the instance's row
// table is filled without resolving a single PeerID. Carried candidate
// lists have their rows remapped through the round's uploader merge.
//
// Key order: uploaders ascending by peer id; requests ascending by
// (peer, video, chunk), strictly. Out-of-order rounds still build a correct
// instance but yield no delta (Build returns nil and consumers fall back to
// their full diff), so ordering is a performance contract, not a
// correctness one.
type Builder struct {
	stores [2]instStore
	cur    *instStore
	prev   *instStore

	// slotOf is the persistent peer→slot uploader index shared with the
	// produced instances; freeSlots recycles slots of departed uploaders.
	slotOf    map[isp.PeerID]int32
	freeSlots []int32
	numSlots  int

	// upNext maps each previous-round uploader row to its row this round
	// (-1 = departed), filled by the ordered uploader merge; carried
	// candidate lists remap their rows through it.
	upNext []int32
	// err is the first candidate error of the round, reported by Build.
	err error

	delta     InstanceDelta
	ordered   bool // current build's keys ascending so far
	prevOrder bool // previous build was ordered
	prevValid bool // prev holds a completed build
	building  bool

	upCursor  int
	reqCursor int
	lastUp    isp.PeerID
	haveUp    bool
	lastKey   reqKey
	haveKey   bool

	// open-request state
	reqOpen    bool
	openReq    Request
	openPrev   int32
	arenaStart int
	carried    bool

	newReqs, newUps int
	allSame         bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{slotOf: make(map[isp.PeerID]int32)}
	b.stores[0].inst.slotOf = b.slotOf
	b.stores[1].inst.slotOf = b.slotOf
	b.cur, b.prev = &b.stores[0], &b.stores[1]
	return b
}

func keyOf(p isp.PeerID, c video.ChunkID) reqKey { return reqKey{peer: p, chunk: c} }

// keyLess orders request keys by (peer, video, chunk index).
func keyLess(a, b reqKey) bool {
	if a.peer != b.peer {
		return a.peer < b.peer
	}
	if a.chunk.Video != b.chunk.Video {
		return a.chunk.Video < b.chunk.Video
	}
	return a.chunk.Index < b.chunk.Index
}

// Begin starts the next round's build. The previous Build's instance stays
// valid (and is the delta baseline) until Build is called.
func (b *Builder) Begin() {
	if b.building {
		panic("sched: Builder.Begin without Build")
	}
	b.building = true
	b.cur, b.prev = b.prev, b.cur
	b.cur.inst.Requests = b.cur.inst.Requests[:0]
	b.cur.inst.Uploaders = b.cur.inst.Uploaders[:0]
	b.cur.arena = b.cur.arena[:0]
	b.cur.rows = b.cur.rows[:0]
	b.cur.rowOff = b.cur.rowOff[:0]
	b.err = nil
	np := len(b.prev.inst.Uploaders)
	b.upNext = slices.Grow(b.upNext[:0], np)[:np]
	for i := range b.upNext {
		b.upNext[i] = -1
	}
	if cap(b.cur.slotRow) < b.numSlots {
		b.cur.slotRow = make([]int32, b.numSlots, b.numSlots+b.numSlots/4+8)
	}
	b.cur.slotRow = b.cur.slotRow[:b.numSlots]
	for i := range b.cur.slotRow {
		b.cur.slotRow[i] = -1
	}
	b.delta.Identity = false
	b.delta.PrevReq = b.delta.PrevReq[:0]
	b.delta.SameCands = b.delta.SameCands[:0]
	b.delta.RemovedReqs = b.delta.RemovedReqs[:0]
	b.delta.PrevUp = b.delta.PrevUp[:0]
	b.delta.RemovedUps = b.delta.RemovedUps[:0]
	b.ordered = true
	b.upCursor, b.reqCursor = 0, 0
	b.haveUp, b.haveKey = false, false
	b.reqOpen = false
	b.newReqs, b.newUps = 0, 0
	b.allSame = true
}

// dropUploader processes the departure of the previous round's uploader at
// prev row i: its slot is recycled and the row recorded as removed.
func (b *Builder) dropUploader(i int) {
	p := b.prev.inst.Uploaders[i].Peer
	if s, ok := b.slotOf[p]; ok {
		delete(b.slotOf, p)
		b.freeSlots = append(b.freeSlots, s)
	}
	b.delta.RemovedUps = append(b.delta.RemovedUps, int32(i))
}

// AddUploader appends one uploader and returns its row, the index
// AddCandidate names it by this round. Uploaders must arrive in strictly
// ascending peer order for the round to yield a delta; duplicates are an
// error either way.
func (b *Builder) AddUploader(p isp.PeerID, capacity int) (int32, error) {
	if !b.building {
		panic("sched: Builder.AddUploader outside Begin/Build")
	}
	if b.reqOpen || len(b.cur.inst.Requests) > 0 {
		return -1, fmt.Errorf("sched: uploaders must be added before requests")
	}
	if capacity < 0 {
		return -1, fmt.Errorf("sched: uploader %d has negative capacity", p)
	}
	if b.haveUp && p <= b.lastUp {
		if p == b.lastUp {
			return -1, fmt.Errorf("sched: duplicate uploader %d", p)
		}
		b.ordered = false
	}
	b.lastUp, b.haveUp = p, true

	prevRow := int32(-1)
	if b.ordered && b.prevOrder && b.prevValid {
		for b.upCursor < len(b.prev.inst.Uploaders) && b.prev.inst.Uploaders[b.upCursor].Peer < p {
			b.dropUploader(b.upCursor)
			b.upCursor++
		}
		if b.upCursor < len(b.prev.inst.Uploaders) && b.prev.inst.Uploaders[b.upCursor].Peer == p {
			prevRow = int32(b.upCursor)
			b.upCursor++
		} else {
			b.newUps++
		}
	}

	s, known := b.slotOf[p]
	if !known {
		if n := len(b.freeSlots); n > 0 {
			s = b.freeSlots[n-1]
			b.freeSlots = b.freeSlots[:n-1]
		} else {
			s = int32(b.numSlots)
			b.numSlots++
			b.cur.slotRow = append(b.cur.slotRow, -1)
		}
		b.slotOf[p] = s
	}
	if int(s) < len(b.cur.slotRow) && b.cur.slotRow[s] >= 0 {
		return -1, fmt.Errorf("sched: duplicate uploader %d", p)
	}
	row := int32(len(b.cur.inst.Uploaders))
	b.cur.slotRow[s] = row
	b.cur.inst.Uploaders = append(b.cur.inst.Uploaders, Uploader{Peer: p, Capacity: capacity})
	b.delta.PrevUp = append(b.delta.PrevUp, prevRow)
	if prevRow >= 0 {
		b.upNext[prevRow] = row
	}
	return row, nil
}

// StartRequest opens one request. Requests must arrive in strictly
// ascending (peer, video, chunk) order for the round to yield a delta. The
// request joins the instance when EndRequest finds it has candidates.
func (b *Builder) StartRequest(p isp.PeerID, chunk video.ChunkID, value, deadline float64) {
	if !b.building {
		panic("sched: Builder.StartRequest outside Begin/Build")
	}
	if b.reqOpen {
		panic("sched: Builder.StartRequest with a request open")
	}
	b.flushUploaderCursor()
	k := keyOf(p, chunk)
	if b.haveKey && !keyLess(b.lastKey, k) {
		b.ordered = false
	}
	b.lastKey, b.haveKey = k, true

	b.openPrev = -1
	if b.ordered && b.prevOrder && b.prevValid {
		for b.reqCursor < len(b.prev.inst.Requests) {
			r := &b.prev.inst.Requests[b.reqCursor]
			pk := keyOf(r.Peer, r.Chunk)
			if !keyLess(pk, k) {
				if pk == k {
					b.openPrev = int32(b.reqCursor)
					b.reqCursor++
				}
				break
			}
			b.delta.RemovedReqs = append(b.delta.RemovedReqs, int32(b.reqCursor))
			b.reqCursor++
		}
	}
	b.openReq = Request{Peer: p, Chunk: chunk, Value: value, Deadline: deadline}
	b.arenaStart = len(b.cur.arena)
	b.carried = false
	b.reqOpen = true
}

// flushUploaderCursor records any previous-round uploaders past the last
// added one as removed (called once the uploader section closes).
func (b *Builder) flushUploaderCursor() {
	if b.ordered && b.prevOrder && b.prevValid {
		for b.upCursor < len(b.prev.inst.Uploaders) {
			b.dropUploader(b.upCursor)
			b.upCursor++
		}
	}
	b.upCursor = len(b.prev.inst.Uploaders)
}

// PrevCandidates returns the candidate list the previous round held for the
// open request, or nil when the request is new (or the rounds are not
// delta-related). The slice is read-only and valid until the next Begin.
func (b *Builder) PrevCandidates() []Candidate {
	if !b.reqOpen || b.openPrev < 0 {
		return nil
	}
	return b.prev.inst.Requests[b.openPrev].Candidates
}

// CarryCandidates copies the previous round's candidate list into the open
// request — the producer's assertion that nothing changed (checked nowhere:
// this is the fast path the dirty tracking guards) — and remaps its rows
// to this round's uploader rows. Reports whether a previous list existed;
// when it returns false the producer must fall back to AddCandidate calls.
// A carried candidate whose uploader did not return this round makes Build
// fail.
func (b *Builder) CarryCandidates() bool {
	pc := b.PrevCandidates()
	if pc == nil {
		return false
	}
	for k, r := range b.prev.inst.Rows(int(b.openPrev)) {
		nr := b.upNext[r]
		if nr < 0 {
			b.fail(fmt.Errorf("sched: uploader %d of a carried candidate of request (%d, %v) has departed",
				pc[k].Peer, b.openReq.Peer, b.openReq.Chunk))
			continue
		}
		b.cur.arena = append(b.cur.arena, pc[k])
		b.cur.rows = append(b.cur.rows, nr)
	}
	b.carried = true
	return true
}

// AddCandidate appends the uploader at row (as returned by this round's
// AddUploader) to the open request, at network cost cost. A row not yet
// added makes Build fail.
func (b *Builder) AddCandidate(row int32, cost float64) {
	if row < 0 || int(row) >= len(b.cur.inst.Uploaders) {
		b.fail(fmt.Errorf("sched: candidate names uploader row %d, but %d uploaders were added",
			row, len(b.cur.inst.Uploaders)))
		return
	}
	b.cur.arena = append(b.cur.arena, Candidate{Peer: b.cur.inst.Uploaders[row].Peer, Cost: cost})
	b.cur.rows = append(b.cur.rows, row)
}

// fail records the round's first candidate error for Build to return.
func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// EndRequest commits the open request. Requests that gathered no candidates
// are dropped (nobody can serve them — the producer's miss accounting
// handles it), and a dropped request that existed last round counts as
// removed.
func (b *Builder) EndRequest() {
	if !b.reqOpen {
		panic("sched: Builder.EndRequest without StartRequest")
	}
	b.reqOpen = false
	cands := b.cur.arena[b.arenaStart:len(b.cur.arena):len(b.cur.arena)]
	if len(cands) == 0 {
		b.cur.arena = b.cur.arena[:b.arenaStart]
		b.cur.rows = b.cur.rows[:b.arenaStart]
		if b.openPrev >= 0 {
			b.delta.RemovedReqs = append(b.delta.RemovedReqs, b.openPrev)
		}
		return
	}
	b.openReq.Candidates = cands
	b.cur.inst.Requests = append(b.cur.inst.Requests, b.openReq)
	b.cur.rowOff = append(b.cur.rowOff, int32(b.arenaStart))
	same := false
	switch {
	case b.openPrev < 0:
		b.newReqs++
	case b.carried:
		same = true
	default:
		same = candidatesEqual(b.prev.inst.Requests[b.openPrev].Candidates, cands)
	}
	if !same {
		b.allSame = false
	}
	b.delta.PrevReq = append(b.delta.PrevReq, b.openPrev)
	b.delta.SameCands = append(b.delta.SameCands, same)
}

// candidatesEqual reports order-sensitive equality of two candidate lists.
func candidatesEqual(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Build closes the round and returns the instance plus the delta versus the
// previous Build (nil on the first round or when either round broke key
// order). Both are valid until the next Build; the delta's slices are
// reused across rounds. A round with a candidate error (an AddCandidate row
// never added, a carried candidate whose uploader left) returns that error,
// and the next round starts without a delta baseline.
func (b *Builder) Build() (*Instance, *InstanceDelta, error) {
	if !b.building {
		panic("sched: Builder.Build without Begin")
	}
	if b.reqOpen {
		return nil, nil, fmt.Errorf("sched: Build with a request still open")
	}
	b.flushUploaderCursor()
	if b.ordered && b.prevOrder && b.prevValid {
		for b.reqCursor < len(b.prev.inst.Requests) {
			b.delta.RemovedReqs = append(b.delta.RemovedReqs, int32(b.reqCursor))
			b.reqCursor++
		}
	}
	b.cur.rowOff = append(b.cur.rowOff, int32(len(b.cur.arena)))
	b.cur.inst.rows, b.cur.inst.rowOff = b.cur.rows, b.cur.rowOff
	b.cur.inst.slotRow = b.cur.slotRow
	b.building = false

	var d *InstanceDelta
	if b.ordered && b.prevOrder && b.prevValid {
		d = &b.delta
		d.Identity = b.newReqs == 0 && b.newUps == 0 && b.allSame &&
			len(d.RemovedReqs) == 0 && len(d.RemovedUps) == 0
	} else if b.prevValid {
		// No merge ran, so departed uploaders were never dropped from the
		// slot index; rebuild it from the round just built to keep the map
		// bounded by the live population.
		b.rebuildSlots()
	}
	b.prevOrder = b.ordered
	b.prevValid = true
	if b.err != nil {
		// Nothing may be carried from, or diffed against, a broken round.
		b.prevOrder = false
		return nil, nil, b.err
	}
	return &b.cur.inst, d, nil
}

// rebuildSlots re-derives the uploader slot index from the instance just
// built — the escape hatch of out-of-order rounds, where the ordered merge
// that normally recycles departed uploaders' slots never ran.
func (b *Builder) rebuildSlots() {
	for p := range b.slotOf {
		delete(b.slotOf, p)
	}
	b.freeSlots = b.freeSlots[:0]
	b.numSlots = len(b.cur.inst.Uploaders)
	if cap(b.cur.slotRow) < b.numSlots {
		b.cur.slotRow = make([]int32, b.numSlots)
	}
	b.cur.slotRow = b.cur.slotRow[:b.numSlots]
	for i := range b.cur.inst.Uploaders {
		b.slotOf[b.cur.inst.Uploaders[i].Peer] = int32(i)
		b.cur.slotRow[i] = int32(i)
	}
	b.cur.inst.slotRow = b.cur.slotRow
}
