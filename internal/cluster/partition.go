package cluster

import (
	"sort"

	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

// Shard is one partition cell: index lists into the parent instance's
// Requests and Uploaders slices, in parent order (ready for
// sched.Instance.Subset).
type Shard struct {
	Key Key
	// Requests and Uploaders index the parent instance.
	Requests  []int
	Uploaders []int
	// CutEdges counts candidate edges the ISP-affinity refinement dropped
	// from this shard's requests (0 for unrefined shards: the component
	// decomposition cuts nothing).
	CutEdges int
}

// Peers returns the shard's distinct peer population — uploaders plus
// downloaders that are not also uploaders here — the size the refinement
// threshold (MaxShardPeers) compares against. A downloader contributes one
// peer no matter how many window chunks it requests.
func (s *Shard) Peers(in *sched.Instance) int {
	n := len(s.Uploaders)
	seen := make(map[isp.PeerID]bool, len(s.Uploaders))
	for _, ui := range s.Uploaders {
		seen[in.Uploaders[ui].Peer] = true
	}
	for _, ri := range s.Requests {
		if p := in.Requests[ri].Peer; !seen[p] {
			seen[p] = true
			n++
		}
	}
	return n
}

// Partition is one slot's decomposition into shards.
type Partition struct {
	// Shards, sorted by Key. Every uploader with at least one admissible
	// edge appears in exactly one shard; every request with candidates too.
	Shards []Shard
	// IdleUploaders indexes uploaders no request can use this slot; they get
	// no grants and price 0, so no solver ever sees them.
	IdleUploaders []int
	// Orphans indexes requests with no candidates (unservable this slot).
	Orphans []int
	// CutEdges totals the edges dropped by ISP-affinity refinement; 0 means
	// the partition is exact and sharded welfare provably equals monolithic.
	CutEdges int
	// Refined counts swarm groups that were split by ISP affinity.
	Refined int
}

// unionFind is a plain weighted quick-union with path halving over uploader
// indices.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// PartitionInstance decomposes a slot instance into shards.
//
// Phase 1 finds the connected components of the request–uploader bipartite
// graph (union-find over uploader indices; each request welds its candidate
// set together). Phase 2 groups components under their stable swarm key —
// the smallest video id among a component's requests — merging components
// that share a key (they stay independent inside one solver, and a stable
// key is what lets the orchestrator keep a shard's solver across slots).
// Phase 3, only when maxPeers > 0 and ispOf is provided, splits groups
// larger than maxPeers into per-ISP slices: uploaders go to their own ISP's
// slice, each request follows its cheapest candidate, and the request's
// candidates outside that slice are cut (counted in CutEdges — the partition
// is no longer exact, see the package comment).
func PartitionInstance(in *sched.Instance, maxPeers int, ispOf func(isp.PeerID) (isp.ID, bool)) *Partition {
	nUp := len(in.Uploaders)
	uf := newUnionFind(nUp)
	reqAnchor := make([]int32, len(in.Requests)) // first candidate's uploader index, -1 for orphans
	for ri := range in.Requests {
		rows := in.Rows(ri)
		if len(rows) == 0 {
			reqAnchor[ri] = -1
			continue
		}
		reqAnchor[ri] = rows[0]
		for _, ui := range rows[1:] {
			uf.union(rows[0], ui)
		}
	}

	// Swarm key per component root: the smallest video id of its requests.
	videoKey := make(map[int32]video.ID)
	for ri := range in.Requests {
		if reqAnchor[ri] < 0 {
			continue
		}
		root := uf.find(reqAnchor[ri])
		v := in.Requests[ri].Chunk.Video
		if cur, ok := videoKey[root]; !ok || v < cur {
			videoKey[root] = v
		}
	}

	// Group components by swarm key, preserving parent order inside each
	// group (Subset requires it only for determinism, but determinism we
	// want).
	p := &Partition{}
	byVideo := make(map[video.ID]*Shard)
	videos := make([]video.ID, 0, len(videoKey))
	shardFor := func(v video.ID) *Shard {
		sh, ok := byVideo[v]
		if !ok {
			sh = &Shard{Key: Key{Video: v, ISP: NoISP}}
			byVideo[v] = sh
			videos = append(videos, v)
		}
		return sh
	}
	for ri := range in.Requests {
		if reqAnchor[ri] < 0 {
			p.Orphans = append(p.Orphans, ri)
			continue
		}
		sh := shardFor(videoKey[uf.find(reqAnchor[ri])])
		sh.Requests = append(sh.Requests, ri)
	}
	for ui := 0; ui < nUp; ui++ {
		v, ok := videoKey[uf.find(int32(ui))]
		if !ok {
			p.IdleUploaders = append(p.IdleUploaders, ui)
			continue
		}
		byVideo[v].Uploaders = append(byVideo[v].Uploaders, ui)
	}
	sort.Slice(videos, func(i, j int) bool { return videos[i] < videos[j] })

	var ispOfRow []isp.ID // refinement's per-uploader-row ISP, shared by every group
	for _, v := range videos {
		sh := byVideo[v]
		if maxPeers <= 0 || ispOf == nil || sh.Peers(in) <= maxPeers {
			p.Shards = append(p.Shards, *sh)
			continue
		}
		if ispOfRow == nil {
			ispOfRow = make([]isp.ID, nUp)
		}
		refined, cut := refineByISP(in, sh, ispOf, ispOfRow)
		if len(refined) <= 1 {
			// Everyone is in one ISP (or unknown): nothing to split.
			p.Shards = append(p.Shards, *sh)
			continue
		}
		p.Refined++
		p.CutEdges += cut
		p.Shards = append(p.Shards, refined...)
	}
	sort.Slice(p.Shards, func(i, j int) bool { return p.Shards[i].Key.less(p.Shards[j].Key) })
	return p
}

// refineByISP splits one oversized swarm group into per-ISP slices. Each
// uploader lands in its ISP's slice (unknown ISPs pool under NoISP); each
// request follows its cheapest candidate (ties: first in candidate order,
// the instance's deterministic order) and loses its candidates outside that
// slice. Returns the slices sorted by ISP and the number of cut edges.
// ispOfRow is scratch indexed by uploader row; only sh's rows are written.
func refineByISP(in *sched.Instance, sh *Shard, ispOf func(isp.PeerID) (isp.ID, bool), ispOfRow []isp.ID) ([]Shard, int) {
	slice := make(map[isp.ID]*Shard)
	ids := make([]isp.ID, 0, 8)
	sliceFor := func(m isp.ID) *Shard {
		s, ok := slice[m]
		if !ok {
			s = &Shard{Key: Key{Video: sh.Key.Video, ISP: m}}
			slice[m] = s
			ids = append(ids, m)
		}
		return s
	}
	for _, ui := range sh.Uploaders {
		m, ok := ispOf(in.Uploaders[ui].Peer)
		if !ok {
			m = NoISP
		}
		ispOfRow[ui] = m
		sliceFor(m).Uploaders = append(sliceFor(m).Uploaders, ui)
	}
	cut := 0
	for _, ri := range sh.Requests {
		cands := in.Requests[ri].Candidates
		best := 0
		for ci := 1; ci < len(cands); ci++ {
			if cands[ci].Cost < cands[best].Cost {
				best = ci
			}
		}
		rows := in.Rows(ri)
		home := ispOfRow[rows[best]]
		s := sliceFor(home)
		s.Requests = append(s.Requests, ri)
		for _, ui := range rows {
			if ispOfRow[ui] != home {
				s.CutEdges++
				cut++
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Shard, 0, len(ids))
	for _, m := range ids {
		out = append(out, *slice[m])
	}
	return out, cut
}
