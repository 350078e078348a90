package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isp"
	"repro/internal/video"
)

// InstanceDelta describes how a slot instance evolved from the previous one
// the same producer built — the slot-to-slot churn a consumer can apply in
// O(churn) instead of re-diffing two full instances by key. No scheduler in
// the tree consumes one; perfbench's probe still forwards them. Deltas are
// produced by
// Builder.Delta and are trusted: consumers bounds-check the row maps but do
// not re-derive them.
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

// instStore is one half of the builder's double buffer: the instance, the
// candidate arena its requests point into, the row table and its
// per-request offsets, whether each request's list was carried, and the
// slot of each uploader row. Two stores alternate so the previous round's
// instance (and every candidate slice a consumer may still hold from it)
// stays intact while the next one is built.
type instStore struct {
	inst    Instance
	arena   []Candidate
	rows    []int32
	rowOff  []int32
	carried []bool
	slotRow []int32
	rowSlot []int32
}

// Builder maintains a persistent mutable Instance across scheduling rounds.
// Each round the producer replays the instance — uploaders first, then
// requests, both in ascending key order — and the builder reuses every
// backing array and maintains the uploader index incrementally. The
// produced instance is valid until the next Build.
//
// AddUploader returns the row it assigned, and the producer names each
// candidate by that row (AddCandidate(row, cost)), so the instance's row
// table is filled without resolving a single PeerID. Carried candidate
// lists have their rows remapped through the uploaders' slots.
//
// Requests only append: the slot-to-slot InstanceDelta is derived on
// demand by Delta, for a consumer that reads it.
//
// Key order: uploaders ascending by peer id; requests ascending by
// (peer, video, chunk), strictly. Out-of-order rounds still build a correct
// instance but yield no delta (Delta returns nil and consumers fall back to
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
	// (-1 = departed), filled when the uploader section closes; carried
	// candidate lists remap their rows through it.
	upNext    []int32
	upsClosed bool

	upOrdered bool // this round's uploaders ascend
	lastUp    isp.PeerID
	haveUp    bool

	reqOrdered bool // this round's requests ascend so far
	lastKey    reqKey
	haveKey    bool
	// cursor is the carry lookup's position in the previous instance's
	// requests, advanced past every smaller key as this round's keys ascend.
	cursor int
	// err is the round's first candidate error, reported by Build.
	err error

	// The open request is the instance's last entry.
	open     bool
	openPrev int32 // its previous row; -2 = not looked up yet
	start    int   // its first candidate in the arena
	carry    bool

	// carryBase: prev is a completed, ordered, error-free build whose
	// candidate lists may be carried. hasDelta: the last Build was ordered
	// against such a baseline, so Delta can derive its delta.
	carryBase bool
	hasDelta  bool
	prevClean bool // the last completed Build was ordered and error-free
	building  bool

	delta     InstanceDelta
	deltaDone bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{slotOf: make(map[isp.PeerID]int32)}
	b.stores[0].inst.slotOf = b.slotOf
	b.stores[1].inst.slotOf = b.slotOf
	b.cur, b.prev = &b.stores[0], &b.stores[1]
	return b
}

// reqKey identifies a request across slots: the same peer wanting the same
// chunk is the same economic actor, whatever its row in this slot's
// Instance.
type reqKey struct {
	peer  isp.PeerID
	chunk video.ChunkID
}

func keyOf(p isp.PeerID, c video.ChunkID) reqKey { return reqKey{peer: p, chunk: c} }

func (r *Request) key() reqKey { return keyOf(r.Peer, r.Chunk) }

// keyCompare orders request keys by (peer, video, chunk index).
func keyCompare(a, b reqKey) int {
	if c := cmp.Compare(a.peer, b.peer); c != 0 {
		return c
	}
	if c := cmp.Compare(a.chunk.Video, b.chunk.Video); c != 0 {
		return c
	}
	return cmp.Compare(a.chunk.Index, b.chunk.Index)
}

// Begin starts the next round's build. The previous Build's instance stays
// valid (and is the carry and delta baseline) until Build is called.
func (b *Builder) Begin() {
	if b.building {
		panic("sched: Builder.Begin without Build")
	}
	b.building = true
	b.carryBase = b.prevClean
	b.hasDelta, b.deltaDone = false, false
	b.cur, b.prev = b.prev, b.cur
	b.cur.inst.Requests = b.cur.inst.Requests[:0]
	b.cur.inst.Uploaders = b.cur.inst.Uploaders[:0]
	b.cur.arena = b.cur.arena[:0]
	b.cur.rows = b.cur.rows[:0]
	b.cur.rowOff = b.cur.rowOff[:0]
	b.cur.carried = b.cur.carried[:0]
	b.cur.rowSlot = b.cur.rowSlot[:0]
	if cap(b.cur.slotRow) < b.numSlots {
		b.cur.slotRow = make([]int32, b.numSlots, b.numSlots+b.numSlots/4+8)
	}
	b.cur.slotRow = b.cur.slotRow[:b.numSlots]
	for i := range b.cur.slotRow {
		b.cur.slotRow[i] = -1
	}
	b.upsClosed = false
	b.upOrdered, b.haveUp = true, false
	b.reqOrdered, b.haveKey = true, false
	b.cursor = 0
	b.err = nil
	b.open = false
}

// AddUploader appends one uploader and returns its row, the index
// AddCandidate names it by this round. Uploaders must arrive in strictly
// ascending peer order for the round to yield a delta; duplicates are an
// error either way.
func (b *Builder) AddUploader(p isp.PeerID, capacity int) (int32, error) {
	if !b.building {
		panic("sched: Builder.AddUploader outside Begin/Build")
	}
	if b.upsClosed {
		return -1, fmt.Errorf("sched: uploaders must be added before requests")
	}
	if capacity < 0 {
		return -1, fmt.Errorf("sched: uploader %d has negative capacity", p)
	}
	if b.haveUp && p <= b.lastUp {
		if p == b.lastUp {
			return -1, fmt.Errorf("sched: duplicate uploader %d", p)
		}
		b.upOrdered = false
	}
	b.lastUp, b.haveUp = p, true

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
	if b.cur.slotRow[s] >= 0 {
		return -1, fmt.Errorf("sched: duplicate uploader %d", p)
	}
	row := int32(len(b.cur.inst.Uploaders))
	b.cur.slotRow[s] = row
	b.cur.rowSlot = append(b.cur.rowSlot, s)
	b.cur.inst.Uploaders = append(b.cur.inst.Uploaders, Uploader{Peer: p, Capacity: capacity})
	return row, nil
}

// closeUploaders ends the uploader section: it maps every previous-round
// uploader row to its row this round through the peer's slot, and releases
// the slots of uploaders that did not return. No slot is reused before this
// point, so a departed uploader's slot still reads -1 in this round's slot
// table.
func (b *Builder) closeUploaders() {
	b.upsClosed = true
	prevUps := b.prev.inst.Uploaders
	b.upNext = slices.Grow(b.upNext[:0], len(prevUps))[:len(prevUps)]
	for i, s := range b.prev.rowSlot[:len(prevUps)] {
		r := b.cur.slotRow[s]
		b.upNext[i] = r
		if r < 0 {
			delete(b.slotOf, prevUps[i].Peer)
			b.freeSlots = append(b.freeSlots, s)
		}
	}
}

// StartRequest opens one request. Requests must arrive in strictly
// ascending (peer, video, chunk) order for the round to yield a delta. The
// request joins the instance when EndRequest finds it has candidates.
func (b *Builder) StartRequest(p isp.PeerID, chunk video.ChunkID, value, deadline float64) {
	if !b.building {
		panic("sched: Builder.StartRequest outside Begin/Build")
	}
	if b.open {
		panic("sched: Builder.StartRequest with a request open")
	}
	if !b.upsClosed {
		b.closeUploaders()
	}
	k := keyOf(p, chunk)
	if b.haveKey && keyCompare(b.lastKey, k) >= 0 {
		b.reqOrdered = false
	}
	b.lastKey, b.haveKey = k, true
	b.cur.inst.Requests = append(b.cur.inst.Requests, Request{Peer: p, Chunk: chunk, Value: value, Deadline: deadline})
	b.openPrev = -2
	b.start = len(b.cur.arena)
	b.carry = false
	b.open = true
}

// prevRow returns the previous instance's row of the open request, or -1
// when it had none or carrying is off this round (no clean baseline, or
// this round's keys broke order so far).
func (b *Builder) prevRow() int32 {
	if b.openPrev != -2 {
		return b.openPrev
	}
	b.openPrev = -1
	if !b.carryBase || !b.upOrdered || !b.reqOrdered {
		return -1
	}
	k := b.lastKey
	reqs := b.prev.inst.Requests
	for b.cursor < len(reqs) && keyCompare(reqs[b.cursor].key(), k) < 0 {
		b.cursor++
	}
	if b.cursor < len(reqs) && reqs[b.cursor].key() == k {
		b.openPrev = int32(b.cursor)
		b.cursor++
	}
	return b.openPrev
}

// PrevCandidates returns the candidate list the previous round held for the
// open request, or nil when the request is new (or the rounds are not
// carry-related). The slice is read-only and valid until the next Begin.
func (b *Builder) PrevCandidates() []Candidate {
	if !b.open {
		return nil
	}
	pr := b.prevRow()
	if pr < 0 {
		return nil
	}
	return b.prev.inst.Requests[pr].Candidates
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
				pc[k].Peer, b.lastKey.peer, b.lastKey.chunk))
			continue
		}
		b.cur.arena = append(b.cur.arena, pc[k])
		b.cur.rows = append(b.cur.rows, nr)
	}
	b.carry = true
	return true
}

// AddCandidate appends the uploader at row (as returned by this round's
// AddUploader) to the open request, at network cost cost. A row not yet
// added makes Build fail.
func (b *Builder) AddCandidate(row int32, cost float64) {
	ups := b.cur.inst.Uploaders
	if row < 0 || int(row) >= len(ups) {
		b.fail(fmt.Errorf("sched: candidate names uploader row %d, but %d uploaders were added",
			row, len(ups)))
		return
	}
	b.cur.arena = append(b.cur.arena, Candidate{Peer: ups[row].Peer, Cost: cost})
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
// handles it).
func (b *Builder) EndRequest() {
	if !b.open {
		panic("sched: Builder.EndRequest without StartRequest")
	}
	b.open = false
	cur := b.cur
	n := len(cur.arena)
	if n == b.start {
		cur.inst.Requests = cur.inst.Requests[:len(cur.inst.Requests)-1]
		return
	}
	cur.inst.Requests[len(cur.inst.Requests)-1].Candidates = cur.arena[b.start:n:n]
	cur.rowOff = append(cur.rowOff, int32(b.start))
	cur.carried = append(cur.carried, b.carry)
}

// Build closes the round and returns the instance, valid until the next
// Build. A round with a candidate error (an AddCandidate row never added, a
// carried candidate whose uploader left) returns that error, and the next
// round starts without a carry or delta baseline.
func (b *Builder) Build() (*Instance, error) {
	if !b.building {
		panic("sched: Builder.Build without Begin")
	}
	if !b.upsClosed {
		b.closeUploaders()
	}
	b.building = false
	cur := b.cur
	err := b.err
	if b.open {
		err = fmt.Errorf("sched: Build with a request still open")
	}
	cur.rowOff = append(cur.rowOff, int32(len(cur.rows)))
	cur.inst.rows, cur.inst.rowOff = cur.rows, cur.rowOff
	cur.inst.slotRow = cur.slotRow

	ordered := b.upOrdered && b.reqOrdered
	b.hasDelta = b.carryBase && ordered && err == nil
	b.prevClean = ordered && err == nil
	if err != nil {
		return nil, err
	}
	return &cur.inst, nil
}

// Delta returns how the last Build's instance evolved from the one before
// it, derived in one merge pass over the two rounds' keys. It is nil after
// the first Build, a failed one, or when either round broke key order.
// The delta is valid until the next Begin; its slices are reused across
// rounds.
func (b *Builder) Delta() *InstanceDelta {
	if b.building || !b.hasDelta {
		return nil
	}
	d := &b.delta
	if b.deltaDone {
		return d
	}
	b.deltaDone = true
	prev, cur := &b.prev.inst, &b.cur.inst
	identity := true

	d.PrevReq, d.SameCands, d.RemovedReqs = d.PrevReq[:0], d.SameCands[:0], d.RemovedReqs[:0]
	pi := 0
	for i := range cur.Requests {
		r := &cur.Requests[i]
		k := r.key()
		for pi < len(prev.Requests) && keyCompare(prev.Requests[pi].key(), k) < 0 {
			d.RemovedReqs = append(d.RemovedReqs, int32(pi))
			pi++
		}
		pr, same := int32(-1), false
		if pi < len(prev.Requests) && prev.Requests[pi].key() == k {
			pr = int32(pi)
			same = b.cur.carried[i] || slices.Equal(prev.Requests[pi].Candidates, r.Candidates)
			pi++
		}
		d.PrevReq = append(d.PrevReq, pr)
		d.SameCands = append(d.SameCands, same)
		identity = identity && same
	}
	for ; pi < len(prev.Requests); pi++ {
		d.RemovedReqs = append(d.RemovedReqs, int32(pi))
	}

	d.PrevUp, d.RemovedUps = d.PrevUp[:0], d.RemovedUps[:0]
	pi = 0
	for i := range cur.Uploaders {
		p := cur.Uploaders[i].Peer
		for pi < len(prev.Uploaders) && prev.Uploaders[pi].Peer < p {
			d.RemovedUps = append(d.RemovedUps, int32(pi))
			pi++
		}
		pr := int32(-1)
		if pi < len(prev.Uploaders) && prev.Uploaders[pi].Peer == p {
			pr = int32(pi)
			pi++
		}
		d.PrevUp = append(d.PrevUp, pr)
		identity = identity && pr >= 0
	}
	for ; pi < len(prev.Uploaders); pi++ {
		d.RemovedUps = append(d.RemovedUps, int32(pi))
	}
	d.Identity = identity && len(d.RemovedReqs) == 0 && len(d.RemovedUps) == 0
	return d
}
