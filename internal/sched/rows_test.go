package sched_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/video"
)

// rowsReq is one live request of the uploader-churn model. cands names
// uploader peers; changed marks a list rewritten this round, which the
// replay must not carry.
type rowsReq struct {
	peer    isp.PeerID
	chunk   video.ChunkIndex
	cands   []sched.Candidate
	changed bool
}

// rowsModel is a seeded generator of Builder rounds in which uploaders join
// and leave (so the Builder recycles departed uploaders' slots), some
// uploaders have zero capacity, and unchanged candidate lists are carried
// across the uploader churn.
type rowsModel struct {
	rng  *randx.Source
	ups  []sched.Uploader // ascending by peer
	reqs []rowsReq        // ascending by (peer, chunk)
	next video.ChunkIndex
}

const rowsPeerSpace = 40 // uploader ids are drawn from [0, rowsPeerSpace)

func newRowsModel(seed uint64) *rowsModel {
	m := &rowsModel{rng: randx.New(seed)}
	for p := 0; p < rowsPeerSpace; p += 2 {
		m.ups = append(m.ups, sched.Uploader{Peer: isp.PeerID(p), Capacity: m.rng.Intn(4)})
	}
	for i := 0; i < 50; i++ {
		m.addRequest()
	}
	return m
}

func (m *rowsModel) addRequest() {
	m.next++
	m.reqs = append(m.reqs, rowsReq{peer: isp.PeerID(1000 + int(m.next)), chunk: m.next, cands: m.pick(), changed: true})
}

// pick draws 1–4 distinct live uploaders in random order.
func (m *rowsModel) pick() []sched.Candidate {
	perm := m.rng.Perm(len(m.ups))
	n := min(1+m.rng.Intn(4), len(perm))
	cands := make([]sched.Candidate, 0, n)
	for _, u := range perm[:n] {
		cands = append(cands, sched.Candidate{Peer: m.ups[u].Peer, Cost: float64(m.rng.Intn(5))})
	}
	return cands
}

// churn advances one round: ~15% of uploaders leave, a few new ones join
// at free ids, and every request naming a departed uploader is rewritten;
// ~10% of the other requests are rewritten or replaced.
func (m *rowsModel) churn() {
	gone := map[isp.PeerID]bool{}
	kept := m.ups[:0]
	for _, u := range m.ups {
		if len(m.ups) > 4 && m.rng.Float64() < 0.15 {
			gone[u.Peer] = true
			continue
		}
		if m.rng.Float64() < 0.2 {
			u.Capacity = m.rng.Intn(4)
		}
		kept = append(kept, u)
	}
	m.ups = kept
	for j := m.rng.Intn(4); j > 0; j-- {
		p := isp.PeerID(m.rng.Intn(rowsPeerSpace))
		i, found := slices.BinarySearchFunc(m.ups, p, func(u sched.Uploader, p isp.PeerID) int { return int(u.Peer - p) })
		if !found && !gone[p] {
			m.ups = slices.Insert(m.ups, i, sched.Uploader{Peer: p, Capacity: m.rng.Intn(4)})
		}
	}
	reqs := m.reqs[:0]
	for _, r := range m.reqs {
		r.changed = false
		for _, c := range r.cands {
			if gone[c.Peer] {
				r.changed = true
			}
		}
		switch x := m.rng.Float64(); {
		case x < 0.05:
			continue // replaced below
		case r.changed || x < 0.15:
			r.cands, r.changed = m.pick(), true
		}
		reqs = append(reqs, r)
	}
	m.reqs = reqs
	for len(m.reqs) < 50 {
		m.addRequest()
	}
}

// replay feeds the round to b, carrying every unchanged list. shuffled
// breaks the key order (uploaders and requests reversed), the round shape
// that yields no delta.
func (m *rowsModel) replay(t *testing.T, b *sched.Builder, shuffled bool) *sched.Instance {
	t.Helper()
	ups := slices.Clone(m.ups)
	reqs := slices.Clone(m.reqs)
	if shuffled {
		slices.Reverse(ups)
		slices.Reverse(reqs)
	}
	b.Begin()
	rowOf := map[isp.PeerID]int32{}
	for _, u := range ups {
		row, err := b.AddUploader(u.Peer, u.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		rowOf[u.Peer] = row
	}
	for _, r := range reqs {
		b.StartRequest(r.peer, video.ChunkID{Index: r.chunk}, 1+float64(r.chunk%7), 1)
		if r.changed || !b.CarryCandidates() {
			for _, c := range r.cands {
				b.AddCandidate(rowOf[c.Peer], c.Cost)
			}
		}
		b.EndRequest()
	}
	in, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// checkRows asserts the row-table invariant: every edge's row names the
// uploader UploaderIndex finds for its peer.
func checkRows(t *testing.T, label string, in *sched.Instance) {
	t.Helper()
	for ri := range in.Requests {
		cands, rows := in.Requests[ri].Candidates, in.Rows(ri)
		if len(rows) != len(cands) {
			t.Fatalf("%s: request %d has %d rows for %d candidates", label, ri, len(rows), len(cands))
		}
		for k, c := range cands {
			ui, ok := in.UploaderIndex(c.Peer)
			if !ok || int(rows[k]) != ui || in.Uploaders[ui].Peer != c.Peer {
				t.Fatalf("%s: request %d candidate %d (peer %d) has row %d, UploaderIndex gives (%d, %v)",
					label, ri, k, c.Peer, rows[k], ui, ok)
			}
		}
	}
}

// TestInstanceRowsMatchIndex pins the row table on every producer: Builder
// rounds under uploader joins and leaves (recycled slots), carried lists
// remapped across that churn, an out-of-order round, zero-capacity
// uploaders, and the NewInstance and Clone instances derived from each
// round.
func TestInstanceRowsMatchIndex(t *testing.T) {
	m := newRowsModel(5)
	b := sched.NewBuilder()
	for round := 0; round < 40; round++ {
		if round > 0 {
			m.churn()
		}
		label := fmt.Sprintf("round %d", round)
		in := m.replay(t, b, round == 17)
		checkRows(t, label+" builder", in)

		ref, err := sched.NewInstance(slices.Clone(in.Requests), slices.Clone(in.Uploaders))
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, label+" NewInstance", ref)
		clone := in.Clone()
		checkRows(t, label+" Clone", clone)
	}
}

// TestBuilderRejectsUnknownRows pins AddCandidate's guard: a row that was
// not added this round, and a carried candidate whose uploader left, make
// Build fail instead of producing an instance with a dangling row. A later
// round builds normally again.
func TestBuilderRejectsUnknownRows(t *testing.T) {
	b := sched.NewBuilder()
	round := func(ups []isp.PeerID, carry bool, row int32) error {
		b.Begin()
		for _, p := range ups {
			if _, err := b.AddUploader(p, 1); err != nil {
				t.Fatal(err)
			}
		}
		b.StartRequest(100, video.ChunkID{}, 5, 1)
		if !carry || !b.CarryCandidates() {
			b.AddCandidate(row, 1)
		}
		b.EndRequest()
		_, err := b.Build()
		return err
	}
	if err := round([]isp.PeerID{1, 2}, false, 2); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("row beyond the added uploaders: err = %v", err)
	}
	if err := round([]isp.PeerID{1, 2}, false, -1); err == nil {
		t.Fatal("negative row accepted")
	}
	if err := round([]isp.PeerID{1, 2}, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := round([]isp.PeerID{1, 2}, true, 0); err != nil {
		t.Fatalf("carry across an unchanged round: %v", err)
	}
	if err := round([]isp.PeerID{1}, true, 0); err == nil || !strings.Contains(err.Error(), "departed") {
		t.Fatalf("carried candidate whose uploader left: err = %v", err)
	}
	if err := round([]isp.PeerID{1}, false, 0); err != nil {
		t.Fatalf("round after a failed one: %v", err)
	}
}

// TestCandidateStays16Bytes pins the candidate layout: rows live beside the
// candidates, in the instance's row table, because widening Candidate to
// carry its row (24 B) cost the cold CDN workload about 20 MB of peak RSS.
func TestCandidateStays16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(sched.Candidate{}); got != 16 {
		t.Fatalf("sched.Candidate is %d bytes, want 16", got)
	}
}
