package sched_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster/clustertest"
	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/video"
)

// modelReq is one live request of the synthetic churn model. The model
// keeps requests sorted by (peer, chunk) and uploaders sorted by peer, the
// Builder's ordering contract.
type modelReq struct {
	peer    isp.PeerID
	chunk   video.ChunkIndex
	value   float64
	cands   []sched.Candidate
	changed bool // candidates rewritten this round (carry is then illegal)
}

type churnModel struct {
	rng  *randx.Source
	ups  []sched.Uploader
	reqs []modelReq
	next video.ChunkIndex
}

func newChurnModel(seed uint64, nUp, nReq int) *churnModel {
	m := &churnModel{rng: randx.New(seed)}
	for u := 0; u < nUp; u++ {
		m.ups = append(m.ups, sched.Uploader{Peer: isp.PeerID(u), Capacity: 1 + m.rng.Intn(3)})
	}
	for r := 0; r < nReq; r++ {
		m.reqs = append(m.reqs, modelReq{
			peer:    isp.PeerID(1000 + r),
			chunk:   m.nextChunk(),
			value:   m.rng.Range(1, 8),
			cands:   m.pick(),
			changed: true,
		})
	}
	return m
}

func (m *churnModel) nextChunk() video.ChunkIndex {
	m.next++
	return m.next
}

func (m *churnModel) pick() []sched.Candidate {
	degree := 1 + m.rng.Intn(4)
	perm := m.rng.Perm(len(m.ups))
	cands := make([]sched.Candidate, 0, degree)
	for _, u := range perm[:degree] {
		cands = append(cands, sched.Candidate{Peer: m.ups[u].Peer, Cost: float64(m.rng.Intn(3))})
	}
	return cands
}

// churn advances the model one round: valuesOnly restricts it to pure
// re-valuations (the Identity shape); otherwise ~10% of requests are
// removed-and-replaced, ~10% rewrite candidates, ~30% shift value, and
// uploader capacities jitter.
func (m *churnModel) churn(valuesOnly bool) {
	for i := range m.reqs {
		m.reqs[i].changed = false
	}
	if valuesOnly {
		for i := range m.reqs {
			if m.rng.Float64() < 0.5 {
				m.reqs[i].value = m.rng.Range(1, 8)
			}
		}
		return
	}
	kept := m.reqs[:0]
	removed := 0
	for _, r := range m.reqs {
		switch x := m.rng.Float64(); {
		case x < 0.1:
			removed++
		case x < 0.2:
			r.cands = m.pick()
			r.changed = true
			kept = append(kept, r)
		case x < 0.5:
			r.value = m.rng.Range(1, 8)
			kept = append(kept, r)
		default:
			kept = append(kept, r)
		}
	}
	m.reqs = kept
	for i := 0; i < removed; i++ {
		// A replacement keeps the peer-major sort: the departed peers'
		// successors request their next chunk.
		m.reqs = append(m.reqs, modelReq{
			peer:    isp.PeerID(2000 + int(m.next)),
			chunk:   m.nextChunk(),
			value:   m.rng.Range(1, 8),
			cands:   m.pick(),
			changed: true,
		})
	}
	for u := range m.ups {
		if m.rng.Float64() < 0.1 {
			m.ups[u].Capacity = 1 + m.rng.Intn(3)
		}
	}
}

// buildRound replays the model through the builder, exercising the carry
// path for unchanged requests.
func (m *churnModel) buildRound(t *testing.T, b *sched.Builder) (*sched.Instance, *sched.InstanceDelta) {
	t.Helper()
	b.Begin()
	rowOf := make(map[isp.PeerID]int32, len(m.ups))
	for _, u := range m.ups {
		row, err := b.AddUploader(u.Peer, u.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		rowOf[u.Peer] = row
	}
	for i := range m.reqs {
		r := &m.reqs[i]
		b.StartRequest(r.peer, video.ChunkID{Video: 0, Index: r.chunk}, r.value, 1)
		if r.changed || !b.CarryCandidates() {
			for _, c := range r.cands {
				b.AddCandidate(rowOf[c.Peer], c.Cost)
			}
		}
		b.EndRequest()
	}
	in, err := b.Build()
	d := b.Delta()
	if err != nil {
		t.Fatal(err)
	}
	return in, d
}

// reference builds the same round through NewInstance.
func (m *churnModel) reference(t *testing.T) *sched.Instance {
	t.Helper()
	ups := append([]sched.Uploader(nil), m.ups...)
	var reqs []sched.Request
	for _, r := range m.reqs {
		reqs = append(reqs, sched.Request{
			Peer:       r.peer,
			Chunk:      video.ChunkID{Video: 0, Index: r.chunk},
			Value:      r.value,
			Deadline:   1,
			Candidates: append([]sched.Candidate(nil), r.cands...),
		})
	}
	in, err := sched.NewInstance(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func sameInstance(t *testing.T, got, want *sched.Instance) {
	t.Helper()
	if !reflect.DeepEqual(got.Uploaders, want.Uploaders) {
		t.Fatalf("uploaders differ:\n got %v\nwant %v", got.Uploaders, want.Uploaders)
	}
	if len(got.Requests) != len(want.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(got.Requests), len(want.Requests))
	}
	for i := range got.Requests {
		if !reflect.DeepEqual(got.Requests[i], want.Requests[i]) {
			t.Fatalf("request %d differs:\n got %+v\nwant %+v", i, got.Requests[i], want.Requests[i])
		}
	}
	for _, u := range want.Uploaders {
		gi, gok := got.UploaderIndex(u.Peer)
		wi, wok := want.UploaderIndex(u.Peer)
		if gi != wi || gok != wok {
			t.Fatalf("UploaderIndex(%d) = (%d,%v), want (%d,%v)", u.Peer, gi, gok, wi, wok)
		}
	}
	if _, ok := got.UploaderIndex(isp.PeerID(999_999)); ok {
		t.Fatal("UploaderIndex finds an unknown peer")
	}
}

// TestBuilderMatchesNewInstance pins that a builder-maintained instance is
// byte-equal to a from-scratch NewInstance build across a churn trace, and
// that the deltas classify rows correctly (all-same on value-only rounds).
func TestBuilderMatchesNewInstance(t *testing.T) {
	m := newChurnModel(7, 12, 60)
	b := sched.NewBuilder()
	for round := 0; round < 30; round++ {
		valuesOnly := round%5 == 3
		if round > 0 {
			m.churn(valuesOnly)
		}
		in, d, ref := (*sched.Instance)(nil), (*sched.InstanceDelta)(nil), m.reference(t)
		in, d = m.buildRound(t, b)
		sameInstance(t, in, ref)
		if round == 0 {
			if d != nil {
				t.Fatal("first round should have no delta baseline")
			}
			continue
		}
		if d == nil {
			t.Fatalf("round %d: ordered rounds must yield a delta", round)
		}
		if valuesOnly && !d.Identity {
			t.Fatalf("round %d: value-only churn should be an identity delta", round)
		}
		if len(d.PrevReq) != len(in.Requests) || len(d.SameCands) != len(in.Requests) ||
			len(d.PrevUp) != len(in.Uploaders) {
			t.Fatalf("round %d: delta shape mismatch", round)
		}
	}
}

// unmoved reports whether a by-key delta moves no row: every previous
// request and uploader survives in its own row, candidates unchanged.
func unmoved(d *sched.InstanceDelta) bool {
	if len(d.RemovedReqs) > 0 || len(d.RemovedUps) > 0 {
		return false
	}
	for i, p := range d.PrevReq {
		if p != int32(i) || !d.SameCands[i] {
			return false
		}
	}
	for i, p := range d.PrevUp {
		if p != int32(i) {
			return false
		}
	}
	return true
}

// TestBuilderDeltaMatchesKeyDiff referees the Builder's delta on its own:
// over the churn model's rounds, each Build's InstanceDelta must equal a
// by-key diff of the previous and current reference instances, and
// Identity must be set exactly on the rounds where no row moved.
func TestBuilderDeltaMatchesKeyDiff(t *testing.T) {
	m := newChurnModel(11, 10, 50)
	b := sched.NewBuilder()
	var prev *sched.Instance
	identities, moved := 0, 0
	for round := 0; round < 25; round++ {
		if round > 0 {
			m.churn(round%4 == 2)
		}
		_, d := m.buildRound(t, b)
		ref := m.reference(t)
		if round == 0 {
			if d != nil {
				t.Fatal("first round should have no delta baseline")
			}
			prev = ref
			continue
		}
		if d == nil {
			t.Fatalf("round %d: ordered rounds must yield a delta", round)
		}
		want := clustertest.KeyDelta(prev, ref)
		for _, f := range []struct {
			name      string
			got, want []int32
		}{
			{"PrevReq", d.PrevReq, want.PrevReq},
			{"RemovedReqs", d.RemovedReqs, want.RemovedReqs},
			{"PrevUp", d.PrevUp, want.PrevUp},
			{"RemovedUps", d.RemovedUps, want.RemovedUps},
		} {
			if !slices.Equal(f.got, f.want) {
				t.Fatalf("round %d: %s = %v, by-key diff %v", round, f.name, f.got, f.want)
			}
		}
		if !slices.Equal(d.SameCands, want.SameCands) {
			t.Fatalf("round %d: SameCands = %v, by-key diff %v", round, d.SameCands, want.SameCands)
		}
		if d.Identity != unmoved(want) {
			t.Fatalf("round %d: Identity = %v, but rows moved = %v", round, d.Identity, !unmoved(want))
		}
		if d.Identity {
			identities++
		} else {
			moved++
		}
		prev = ref
	}
	if identities == 0 || moved == 0 {
		t.Fatalf("%d identity and %d moving rounds; the trace must have both", identities, moved)
	}
}

// TestBuilderUnorderedRoundsStillBuild pins the ordering contract: breaking
// key order degrades the delta to nil but the instance stays correct.
func TestBuilderUnorderedRoundsStillBuild(t *testing.T) {
	b := sched.NewBuilder()
	build := func(order []isp.PeerID) (*sched.Instance, *sched.InstanceDelta) {
		b.Begin()
		for _, p := range []isp.PeerID{0, 1} {
			if _, err := b.AddUploader(p, 2); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range order {
			b.StartRequest(p, video.ChunkID{Video: 0, Index: 1}, 5, 1)
			b.AddCandidate(0, 0)
			b.AddCandidate(1, 1)
			b.EndRequest()
		}
		in, err := b.Build()
		d := b.Delta()
		if err != nil {
			t.Fatal(err)
		}
		return in, d
	}
	build([]isp.PeerID{100, 101})
	in, d := build([]isp.PeerID{101, 100}) // out of order
	if d != nil {
		t.Fatal("out-of-order round must not claim a delta")
	}
	if len(in.Requests) != 2 || in.Requests[0].Peer != 101 {
		t.Fatalf("unordered build mangled the instance: %+v", in.Requests)
	}
	if _, d = build([]isp.PeerID{100, 101}); d != nil {
		t.Fatal("the round after an unordered one has no trustworthy baseline")
	}
	if _, d = build([]isp.PeerID{100, 101}); d == nil || !d.Identity {
		t.Fatal("two consecutive ordered rounds should re-establish deltas")
	}
}

// TestBuilderRejectsDuplicateUploaders mirrors NewInstance's guard.
func TestBuilderRejectsDuplicateUploaders(t *testing.T) {
	b := sched.NewBuilder()
	b.Begin()
	if _, err := b.AddUploader(4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddUploader(4, 2); err == nil {
		t.Fatal("duplicate uploader accepted")
	}
}
