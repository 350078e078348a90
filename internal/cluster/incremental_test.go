package cluster

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster/clustertest"
	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/video"
)

// swarmModel generates a builder-driven multi-swarm churn trace: the
// clustertest workload shape (independent swarms, per-slot removals,
// value shifts, candidate rewrites, capacity jitter), but replayed through
// sched.Builder in global key order so every slot yields an InstanceDelta.
type swarmModel struct {
	rng    *randx.Source
	swarms int
	upPer  int
	caps   [][]int
	costs  [][]float64
	reqs   [][]swarmReq // per swarm, ascending downloader id
	nextID []int
}

type swarmReq struct {
	down    isp.PeerID
	chunk   video.ChunkIndex
	value   float64
	cands   []int // uploader offsets within the swarm
	changed bool
}

func (m *swarmModel) upPeer(s, i int) isp.PeerID {
	return isp.PeerID(s*10_000 + i)
}

func (m *swarmModel) pick() []int {
	degree := 1 + m.rng.Intn(4)
	perm := m.rng.Perm(m.upPer)
	return append([]int(nil), perm[:degree]...)
}

func newSwarmModel(seed uint64, swarms, upPer, reqPer int) *swarmModel {
	m := &swarmModel{
		rng: randx.New(seed), swarms: swarms, upPer: upPer,
		caps: make([][]int, swarms), costs: make([][]float64, swarms),
		reqs: make([][]swarmReq, swarms), nextID: make([]int, swarms),
	}
	for s := 0; s < swarms; s++ {
		m.caps[s] = make([]int, upPer)
		m.costs[s] = make([]float64, upPer)
		for u := 0; u < upPer; u++ {
			m.caps[s][u] = 1 + m.rng.Intn(3)
			m.costs[s][u] = float64(m.rng.Intn(3))
		}
		for r := 0; r < reqPer; r++ {
			m.reqs[s] = append(m.reqs[s], swarmReq{
				down:  isp.PeerID(5_000_000 + s*100_000 + m.nextID[s]),
				chunk: video.ChunkIndex(m.nextID[s]),
				value: m.rng.Range(1, 8),
				cands: m.pick(),
			})
			m.nextID[s]++
		}
	}
	return m
}

func (m *swarmModel) churn() {
	for s := 0; s < m.swarms; s++ {
		kept := m.reqs[s][:0]
		removed := 0
		for _, r := range m.reqs[s] {
			r.changed = false
			switch x := m.rng.Float64(); {
			case x < 0.06:
				removed++
			case x < 0.12:
				r.cands = m.pick()
				r.changed = true
				kept = append(kept, r)
			case x < 0.4:
				r.value = m.rng.Range(1, 8)
				kept = append(kept, r)
			default:
				kept = append(kept, r)
			}
		}
		for i := 0; i < removed; i++ {
			kept = append(kept, swarmReq{
				down:    isp.PeerID(5_000_000 + s*100_000 + m.nextID[s]),
				chunk:   video.ChunkIndex(m.nextID[s]),
				value:   m.rng.Range(1, 8),
				cands:   m.pick(),
				changed: true,
			})
			m.nextID[s]++
		}
		m.reqs[s] = kept
		for u := range m.caps[s] {
			if m.rng.Float64() < 0.05 {
				m.caps[s][u] = 1 + m.rng.Intn(3)
			}
		}
	}
}

func (m *swarmModel) build(t *testing.T, b *sched.Builder) (*sched.Instance, *sched.InstanceDelta) {
	t.Helper()
	b.Begin()
	for s := 0; s < m.swarms; s++ {
		for u := 0; u < m.upPer; u++ {
			if _, err := b.AddUploader(m.upPeer(s, u), m.caps[s][u]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < m.swarms; s++ {
		for i := range m.reqs[s] {
			r := &m.reqs[s][i]
			b.StartRequest(r.down, video.ChunkID{Video: video.ID(s), Index: r.chunk}, r.value, 1)
			if r.changed || !b.CarryCandidates() {
				for _, u := range r.cands {
					b.AddCandidate(int32(s*m.upPer+u), m.costs[s][u]) // uploaders were added s-major
				}
			}
			b.EndRequest()
		}
	}
	in, err := b.Build()
	d := b.Delta()
	if err != nil {
		t.Fatal(err)
	}
	return in, d
}

// samePartition compares two partitions semantically (nil and empty member
// lists are the same thing).
func samePartition(t *testing.T, slot int, got, want *Partition) {
	t.Helper()
	if len(got.Shards) != len(want.Shards) {
		t.Fatalf("slot %d: %d shards, want %d", slot, len(got.Shards), len(want.Shards))
	}
	rows := func(a []int) []int {
		if len(a) == 0 {
			return nil
		}
		return a
	}
	for i := range got.Shards {
		g, w := &got.Shards[i], &want.Shards[i]
		if g.Key != w.Key {
			t.Fatalf("slot %d shard %d: key %+v, want %+v", slot, i, g.Key, w.Key)
		}
		if !reflect.DeepEqual(rows(g.Requests), rows(w.Requests)) {
			t.Fatalf("slot %d shard %d (%+v): requests %v, want %v", slot, i, g.Key, g.Requests, w.Requests)
		}
		if !reflect.DeepEqual(rows(g.Uploaders), rows(w.Uploaders)) {
			t.Fatalf("slot %d shard %d (%+v): uploaders %v, want %v", slot, i, g.Key, g.Uploaders, w.Uploaders)
		}
	}
	if !reflect.DeepEqual(rows(got.IdleUploaders), rows(want.IdleUploaders)) {
		t.Fatalf("slot %d: idle uploaders %v, want %v", slot, got.IdleUploaders, want.IdleUploaders)
	}
	if !reflect.DeepEqual(rows(got.Orphans), rows(want.Orphans)) {
		t.Fatalf("slot %d: orphans %v, want %v", slot, got.Orphans, want.Orphans)
	}
	if got.CutEdges != want.CutEdges || got.Refined != want.Refined {
		t.Fatalf("slot %d: cut/refined %d/%d, want %d/%d",
			slot, got.CutEdges, got.Refined, want.CutEdges, want.Refined)
	}
}

// TestIncrementalPartitionEqualsFull is the membership golden: across a
// churning multi-swarm trace, the carried partition must equal a
// from-scratch PartitionInstance on every slot — and the incremental path
// must actually run (not silently fall back to rebuilds) and carry some
// shard over without re-finding it.
func TestIncrementalPartitionEqualsFull(t *testing.T) {
	m := newSwarmModel(13, 6, 8, 30)
	b := sched.NewBuilder()
	var ip incrementalPartitioner
	carriedSeen := false
	for slot := 0; slot < 20; slot++ {
		if slot > 0 {
			m.churn()
		}
		in, d := m.build(t, b)
		before := ip.incremental
		got := ip.update(in, d)
		want := PartitionInstance(in, 0, nil)
		samePartition(t, slot, got, want)
		if ip.incremental > before && !d.Identity && slices.Contains(ip.dirtyShard, false) {
			carriedSeen = true
		}
	}
	if ip.incremental == 0 {
		t.Fatal("the incremental path never ran — every slot fell back to a rebuild")
	}
	if !carriedSeen {
		t.Fatal("no shard was ever carried — every incremental update re-found them all")
	}
	t.Logf("%d incremental updates, %d rebuilds", ip.incremental, ip.rebuilds)
}

// TestShardedScheduleDeltaMatchesSchedule pins that ShardedAuction's delta
// path is unobservable in the result: a twin consuming (instance, delta)
// pairs must emit bit-identical grants, prices and stats to one re-solving
// cloned instances through the classic Schedule path.
func TestShardedScheduleDeltaMatchesSchedule(t *testing.T) {
	m := newSwarmModel(29, 5, 8, 40)
	b := sched.NewBuilder()
	viaDelta := &ShardedAuction{Epsilon: 0.01, Workers: 2, Seed: 42}
	viaFull := &ShardedAuction{Epsilon: 0.01, Workers: 2, Seed: 42}
	for slot := 0; slot < 16; slot++ {
		if slot > 0 {
			m.churn()
		}
		in, d := m.build(t, b)
		ref := in.Clone()
		got, err := viaDelta.ScheduleDelta(in, d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := viaFull.Schedule(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Grants, want.Grants) {
			t.Fatalf("slot %d: grants diverge", slot)
		}
		if !reflect.DeepEqual(got.Prices, want.Prices) {
			t.Fatalf("slot %d: prices diverge", slot)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("slot %d: stats diverge:\n got %v\nwant %v", slot, got.Stats, want.Stats)
		}
	}
	if viaDelta.Stats().PartitionIncremental == 0 {
		t.Fatal("delta twin never took the incremental partition path")
	}
	if viaFull.Stats().PartitionIncremental != 0 {
		t.Fatal("full twin unexpectedly took the incremental path")
	}
}

// TestIncrementalPartitionKeyMigration exercises the rare collision merge:
// a dirty component whose key migrates onto a clean shard's key must merge
// into that shard, exactly as the full partition's group-by-key does.
func TestIncrementalPartitionKeyMigration(t *testing.T) {
	b := sched.NewBuilder()
	var ip incrementalPartitioner
	build := func(withRA bool) (*sched.Instance, *sched.InstanceDelta) {
		b.Begin()
		if _, err := b.AddUploader(0, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddUploader(1, 2); err != nil {
			t.Fatal(err)
		}
		if withRA {
			// rA keys its component (with rB on uploader 0) to video 1.
			b.StartRequest(100, video.ChunkID{Video: 1, Index: 0}, 5, 1)
			b.AddCandidate(0, 0)
			b.EndRequest()
		}
		b.StartRequest(101, video.ChunkID{Video: 2, Index: 0}, 5, 1)
		b.AddCandidate(0, 0)
		b.EndRequest()
		b.StartRequest(102, video.ChunkID{Video: 2, Index: 1}, 5, 1)
		b.AddCandidate(1, 0)
		b.EndRequest()
		in, err := b.Build()
		d := b.Delta()
		if err != nil {
			t.Fatal(err)
		}
		return in, d
	}
	in, d := build(true)
	got := ip.update(in, d)
	if len(got.Shards) != 2 {
		t.Fatalf("round 1: %d shards, want 2 (keys 1 and 2)", len(got.Shards))
	}
	// Round 2: rA departs; uploader 0's component re-keys to video 2 and
	// must merge with the clean shard keyed 2 (uploader 1).
	in, d = build(false)
	if d == nil {
		t.Fatal("no delta for the migration round")
	}
	got = ip.update(in, d)
	want := PartitionInstance(in, 0, nil)
	samePartition(t, 1, got, want)
	if len(got.Shards) != 1 || got.Shards[0].Key.Video != 2 {
		t.Fatalf("migration round: shards %+v, want one shard keyed video 2", got.Shards)
	}
	// Round 1 had no delta baseline (first build), so only round 2 could be
	// incremental — and must have been.
	if ip.incremental != 1 || ip.rebuilds != 1 {
		t.Fatalf("incremental/rebuilds = %d/%d, want 1/1", ip.incremental, ip.rebuilds)
	}
}

// replay feeds one instance through a Builder in its key order (uploaders
// by peer, requests by (peer, video, chunk)), so any instance trace becomes
// a Builder-produced sequence with a delta per slot after the first.
func replay(t testing.TB, b *sched.Builder, in *sched.Instance) (*sched.Instance, *sched.InstanceDelta) {
	t.Helper()
	ups := slices.Clone(in.Uploaders)
	slices.SortFunc(ups, func(x, y sched.Uploader) int { return cmp.Compare(x.Peer, y.Peer) })
	reqs := slices.Clone(in.Requests)
	slices.SortFunc(reqs, func(x, y sched.Request) int {
		return cmp.Or(cmp.Compare(x.Peer, y.Peer), cmp.Compare(x.Chunk.Video, y.Chunk.Video),
			cmp.Compare(x.Chunk.Index, y.Chunk.Index))
	})
	b.Begin()
	rowOf := make(map[isp.PeerID]int32, len(ups))
	for _, u := range ups {
		row, err := b.AddUploader(u.Peer, u.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		rowOf[u.Peer] = row
	}
	for _, r := range reqs {
		b.StartRequest(r.Peer, r.Chunk, r.Value, r.Deadline)
		for _, c := range r.Candidates {
			b.AddCandidate(rowOf[c.Peer], c.Cost)
		}
		b.EndRequest()
	}
	out, err := b.Build()
	d := b.Delta()
	if err != nil {
		t.Fatal(err)
	}
	return out, d
}

// TestShardedColdEqualsMonolithic is the differential test of the cold
// shards: the same Builder-produced churn sequence, fed through
// ScheduleDelta (the carried partition) and through a second orchestrator's
// Schedule (a full partition every slot), must grant exactly what one
// monolithic sched.Auction grants, at exactly its prices, on every slot and
// at every worker count. The cold auction's FIFO bid queue, restricted to
// an independent component, is that component's own queue, so each shard
// replays its part of the monolithic solve bid for bid.
func TestShardedColdEqualsMonolithic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		slots []*sched.Instance
	}{
		{"float", buildSlots(23, 14, 8, 40, 10, 0.2, false)},
		{"integral", buildSlots(31, 14, 5, 60, 12, 0.3, true)},
		{"heavy-churn", buildSlots(37, 10, 12, 25, 6, 0.6, false)},
		{"cross-swarm", crossSwarmSlots(t, 43, 24, 8, 6, 12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					coldEqualsMonolithic(t, tc.slots, workers)
				})
			}
		})
	}
}

// coldEqualsMonolithic replays slots through a Builder and checks both
// sharded entry points against one sched.Auction on every slot.
func coldEqualsMonolithic(t *testing.T, slots []*sched.Instance, workers int) {
	b := sched.NewBuilder()
	viaDelta := &ShardedAuction{Epsilon: 0.01, Workers: workers, Seed: 5}
	viaFull := &ShardedAuction{Epsilon: 0.01, Workers: workers, Seed: 5}
	mono := &sched.Auction{Epsilon: 0.01}
	for slot, raw := range slots {
		in, d := replay(t, b, raw)
		want, err := mono.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := viaDelta.ScheduleDelta(in, d)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, fmt.Sprintf("slot %d via ScheduleDelta", slot), got, want)
		if got, err = viaFull.Schedule(in); err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, fmt.Sprintf("slot %d via Schedule", slot), got, want)
	}
	if viaDelta.Stats().PartitionIncremental == 0 {
		t.Fatal("the delta-fed orchestrator never carried its partition")
	}
}

// sameOutcome fails unless got grants exactly want's grants (the sharded
// merge lists them in shard-key order, the monolithic solve in request
// order) at bit-equal prices.
func sameOutcome(t *testing.T, label string, got, want *sched.Result) {
	t.Helper()
	g := sortedGrants(got.Grants)
	if !slices.Equal(g, want.Grants) {
		t.Fatalf("%s: grants diverge from the monolithic auction's (%d vs %d)", label, len(g), len(want.Grants))
	}
	if !reflect.DeepEqual(got.Prices, want.Prices) {
		t.Fatalf("%s: prices diverge from the monolithic auction's", label)
	}
}

// sortedGrants returns grants in request order, the order a monolithic
// solve lists them in.
func sortedGrants(grants []sched.Grant) []sched.Grant {
	return slices.SortedFunc(slices.Values(grants), func(x, y sched.Grant) int {
		return cmp.Compare(x.Request, y.Request)
	})
}

// crossSwarmSlots generates a churn trace whose components merge, split
// and re-key across slots: a tenth of the candidate edges reach into the
// next swarm (welding the two swarms under the smaller video id until the
// edge goes), and uploaders sit out single slots (their edges vanish and
// return). Requests survive with their candidate lists intact, change
// them, re-value or depart, so carried, rewritten, moved and new rows all
// occur, inside a shard and between shards.
func crossSwarmSlots(t *testing.T, seed uint64, slots, swarms, upPer, reqPer int) []*sched.Instance {
	t.Helper()
	rng := randx.New(seed)
	type req struct {
		down  isp.PeerID
		chunk video.ChunkID
		value float64
		cands []isp.PeerID
	}
	upPeer := func(s, u int) isp.PeerID { return isp.PeerID(s*1000 + u) }
	cost := func(p isp.PeerID) float64 { return float64(int(p) % 3) }
	pick := func(s int) []isp.PeerID {
		var out []isp.PeerID
		for k := 1 + rng.Intn(3); k > 0; k-- {
			home := s
			if rng.Float64() < 0.1 {
				home = (s + 1) % swarms
			}
			p := upPeer(home, rng.Intn(upPer))
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
		return out
	}
	next := 0
	fresh := func(s int) req {
		next++
		return req{down: isp.PeerID(1_000_000 + next), chunk: video.ChunkID{Video: video.ID(s)},
			value: rng.Range(1, 8), cands: pick(s)}
	}
	reqs := make([][]req, swarms)
	for s := range reqs {
		for k := 0; k < reqPer; k++ {
			reqs[s] = append(reqs[s], fresh(s))
		}
	}
	var out []*sched.Instance
	for slot := 0; slot < slots; slot++ {
		if slot > 0 {
			for s := range reqs {
				for k := range reqs[s] {
					switch x := rng.Float64(); {
					case x < 0.08:
						reqs[s][k] = fresh(s)
					case x < 0.2:
						reqs[s][k].cands = pick(s)
					case x < 0.45:
						reqs[s][k].value = rng.Range(1, 8)
					}
				}
			}
		}
		present := map[isp.PeerID]bool{}
		var ups []sched.Uploader
		for s := 0; s < swarms; s++ {
			for u := 0; u < upPer; u++ {
				if slot == 0 || rng.Float64() >= 0.05 {
					ups = append(ups, sched.Uploader{Peer: upPeer(s, u), Capacity: 1 + rng.Intn(2)})
					present[upPeer(s, u)] = true
				}
			}
		}
		var rs []sched.Request
		for s := range reqs {
			for _, r := range reqs[s] {
				var cands []sched.Candidate
				for _, p := range r.cands {
					if present[p] {
						cands = append(cands, sched.Candidate{Peer: p, Cost: cost(p)})
					}
				}
				if len(cands) > 0 {
					rs = append(rs, sched.Request{Peer: r.down, Chunk: r.chunk, Value: r.value, Candidates: cands})
				}
			}
		}
		in, err := sched.NewInstance(rs, ups)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

// TestIncrementalPartitionAllocs pins the carried partition's steady state:
// once its scratch has grown, an incremental update allocates nothing, at
// two population sizes. Two instances alternate, each with a non-identity
// delta to the other (removed, added and edge-rewritten requests).
func TestIncrementalPartitionAllocs(t *testing.T) {
	for _, swarms := range []int{6, 60} {
		slots := buildSlots(41, 2, swarms, 30, 8, 0.3, false)
		a, b := slots[0], slots[1]
		ab, ba := clustertest.KeyDelta(a, b), clustertest.KeyDelta(b, a)
		var ip incrementalPartitioner
		ip.update(a, nil)
		step := func() {
			ip.update(b, ab)
			ip.update(a, ba)
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if ip.incremental != 6 {
			t.Fatalf("%d swarms: %d incremental updates of 6 — the carried path did not run", swarms, ip.incremental)
		}
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Fatalf("%d swarms: a steady-state incremental update allocates %.1f, want 0", swarms, allocs/2)
		}
	}
}
