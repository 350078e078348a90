// Package clustertest generates deterministic multi-swarm churn traces at
// the sched.Instance level — the shared workload of the cluster package's
// golden tests and the repository's BenchmarkShard* suite, kept in one
// place so the goldens and the recorded benchmarks (BENCH_shard.json)
// always measure the same trace shape.
//
// Per slot, a frac fraction of the live requests churns — half removals
// (replaced by fresh chunks), a quarter pure re-valuations, a quarter
// candidate-set rewrites — plus ~5% capacity jitter per uploader.
// Swarms are independent by construction (candidates never cross swarms),
// so the component partition is exact and sharded welfare provably matches
// a monolithic solve's.
package clustertest

import (
	"slices"

	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/video"
)

// UpPeer returns uploader i of swarm s under the fixed peer-id scheme:
// uploaders and downloaders live in disjoint id blocks per swarm.
func UpPeer(swarm, i int) isp.PeerID { return isp.PeerID(swarm*10_000 + i) }

// DownPeer returns downloader i of swarm s.
func DownPeer(swarm, i int) isp.PeerID { return isp.PeerID(5_000_000 + swarm*10_000 + i) }

// synReq is the mutable request population entry of one swarm.
type synReq struct {
	down  isp.PeerID
	chunk video.ChunkIndex
	value float64
	cands []int // uploader indices within the swarm
}

// BuildSlots generates a deterministic multi-swarm churn trace: slots
// instances over swarms independent swarms of reqPer requests × upPer
// uploaders, churning frac of the requests per slot as described in the
// package comment. integral draws integer values/costs so welfare sums are
// exactly representable (the bit-equality goldens); otherwise values and
// costs are uniform floats. Request identity — the (peer, chunk) key the
// Builder's deltas match on — is stable for surviving requests across
// slots.
func BuildSlots(seed uint64, slots, swarms, reqPer, upPer int, frac float64, integral bool) []*sched.Instance {
	rng := randx.New(seed)
	value := func() float64 {
		if integral {
			return float64(2 + rng.Intn(7))
		}
		return rng.Range(1, 8)
	}
	cost := func() float64 {
		if integral {
			return float64(rng.Intn(3))
		}
		return rng.Range(0, 2)
	}
	pick := func() []int {
		degree := 1 + rng.Intn(6)
		if degree > upPer {
			degree = upPer
		}
		perm := rng.Perm(upPer)
		return append([]int(nil), perm[:degree]...)
	}
	costOf := make([][]float64, swarms) // stable per-uploader cost: welfare stays comparable
	caps := make([][]int, swarms)
	reqs := make([][]synReq, swarms)
	next := make([]int, swarms)
	for s := 0; s < swarms; s++ {
		costOf[s] = make([]float64, upPer)
		caps[s] = make([]int, upPer)
		for u := 0; u < upPer; u++ {
			costOf[s][u] = cost()
			caps[s][u] = 1 + rng.Intn(3)
		}
		for r := 0; r < reqPer; r++ {
			reqs[s] = append(reqs[s], synReq{
				down:  DownPeer(s, r),
				chunk: video.ChunkIndex(next[s]),
				value: value(),
				cands: pick(),
			})
			next[s]++
		}
	}
	var out []*sched.Instance
	for slot := 0; slot < slots; slot++ {
		if slot > 0 {
			for s := 0; s < swarms; s++ {
				kept := reqs[s][:0]
				removed := 0
				for _, r := range reqs[s] {
					switch x := rng.Float64(); {
					case x < frac/2:
						removed++
					case x < frac*3/4:
						r.value = value() // ValueShift path
						kept = append(kept, r)
					case x < frac:
						r.cands = pick() // full edge rewrite
						kept = append(kept, r)
					default:
						kept = append(kept, r)
					}
				}
				for i := 0; i < removed; i++ {
					kept = append(kept, synReq{
						down:  DownPeer(s, next[s]%reqPer),
						chunk: video.ChunkIndex(next[s]),
						value: value(),
						cands: pick(),
					})
					next[s]++
				}
				reqs[s] = kept
				for u := range caps[s] {
					if rng.Float64() < 0.05 {
						caps[s][u] = 1 + rng.Intn(3)
					}
				}
			}
		}
		var ups []sched.Uploader
		var rs []sched.Request
		for s := 0; s < swarms; s++ {
			for u := 0; u < upPer; u++ {
				ups = append(ups, sched.Uploader{Peer: UpPeer(s, u), Capacity: caps[s][u]})
			}
			for _, r := range reqs[s] {
				cands := make([]sched.Candidate, 0, len(r.cands))
				for _, u := range r.cands {
					cands = append(cands, sched.Candidate{Peer: UpPeer(s, u), Cost: costOf[s][u]})
				}
				rs = append(rs, sched.Request{
					Peer:       r.down,
					Chunk:      video.ChunkID{Video: video.ID(s), Index: r.chunk},
					Value:      r.value,
					Candidates: cands,
				})
			}
		}
		in, err := sched.NewInstance(rs, ups)
		if err != nil {
			panic(err) // construction is internally consistent by design
		}
		out = append(out, in)
	}
	return out
}

// KeyDelta relates cur to prev by key, the way a sched.Builder's ordered
// replay does: uploaders by peer, requests by (peer, chunk). A carried
// request's SameCands is set when its candidate list is unchanged. Identity
// is left false.
func KeyDelta(prev, cur *sched.Instance) *sched.InstanceDelta {
	d := &sched.InstanceDelta{}
	upRow := map[isp.PeerID]int32{}
	for i, u := range prev.Uploaders {
		upRow[u.Peer] = int32(i)
	}
	carriedUp := map[int32]bool{}
	for _, u := range cur.Uploaders {
		p, ok := upRow[u.Peer]
		if !ok {
			p = -1
		}
		carriedUp[p] = true
		d.PrevUp = append(d.PrevUp, p)
	}
	for i := range prev.Uploaders {
		if !carriedUp[int32(i)] {
			d.RemovedUps = append(d.RemovedUps, int32(i))
		}
	}
	type key struct {
		peer  isp.PeerID
		chunk video.ChunkID
	}
	reqRow := map[key]int32{}
	for i, r := range prev.Requests {
		reqRow[key{r.Peer, r.Chunk}] = int32(i)
	}
	carriedReq := map[int32]bool{}
	for _, r := range cur.Requests {
		p, ok := reqRow[key{r.Peer, r.Chunk}]
		if !ok {
			p = -1
		}
		carriedReq[p] = true
		d.PrevReq = append(d.PrevReq, p)
		d.SameCands = append(d.SameCands, ok && slices.Equal(prev.Requests[p].Candidates, r.Candidates))
	}
	for i := range prev.Requests {
		if !carriedReq[int32(i)] {
			d.RemovedReqs = append(d.RemovedReqs, int32(i))
		}
	}
	return d
}
