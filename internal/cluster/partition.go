package cluster

import (
	"cmp"
	"slices"

	"repro/internal/sched"
	"repro/internal/video"
)

// Shard is one partition cell: index lists into the parent instance's
// Requests and Uploaders slices, in parent order (Partition.view hands them
// to the shard's auction).
type Shard struct {
	// Key is the shard's swarm: the smallest video id of its requests. It
	// identifies the shard stably across slots.
	Key video.ID
	// Requests and Uploaders index the parent instance.
	Requests  []int
	Uploaders []int
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

	// shardOf and sinkOf map every parent uploader row to its shard and to
	// its index in that shard's Uploaders (-1 for an idle uploader).
	shardOf, sinkOf []int32
}

// view returns shard i as a view of the parent instance.
func (p *Partition) view(i int) sched.View {
	sh := &p.Shards[i]
	return sched.View{Requests: sh.Requests, Uploaders: sh.Uploaders, SinkOf: p.sinkOf}
}

// partitioner computes partitions on arrays it keeps across slots, so a
// steady-state slot partitions without allocating. The partition it
// returns is valid until its next call.
type partitioner struct {
	part   Partition
	parent []int32 // union-find over uploader rows, linking to the smaller root
	// rootComp maps a union-find root to its component; reqComp maps a
	// request to its component, then to its shard.
	rootComp, reqComp []int32
	comps             []component
	byKey             []int32 // components in key order
	count             []int   // members per shard
	reqArena, upArena []int
}

// component is one connected component of the request–uploader graph: its
// swarm key (the smallest video id of its requests) and its shard.
type component struct {
	key   video.ID
	shard int32
}

// find returns x's union-find root, halving the path on the way.
func (pt *partitioner) find(x int32) int32 {
	parent := pt.parent
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// PartitionInstance decomposes a slot instance into shards.
//
// Phase 1 finds the connected components of the request–uploader bipartite
// graph (union-find over uploader rows; each request welds its candidate
// set together). Phase 2 groups components under their stable swarm key —
// the smallest video id among a component's requests — merging components
// that share a key (they stay independent inside one solver, and a stable
// key is what lets the orchestrator keep a shard's solver across slots).
// No candidate edge crosses shards, so the partition is exact.
func PartitionInstance(in *sched.Instance) *Partition {
	return new(partitioner).partition(in)
}

// partition is PartitionInstance on the partitioner's arrays. Member lists
// are laid out by a counting pass: every shard's requests, then every
// shard's uploaders, are windows of one arena each, in shard-key order and,
// within a shard, in parent order.
func (pt *partitioner) partition(in *sched.Instance) *Partition {
	nUp, nReq := len(in.Uploaders), len(in.Requests)
	p := &pt.part
	p.IdleUploaders, p.Orphans = p.IdleUploaders[:0], p.Orphans[:0]

	pt.parent = slices.Grow(pt.parent[:0], nUp)[:nUp]
	for i := range pt.parent {
		pt.parent[i] = int32(i)
	}
	for ri := 0; ri < nReq; ri++ {
		rows := in.Rows(ri)
		if len(rows) < 2 {
			continue
		}
		a := pt.find(rows[0])
		for _, ui := range rows[1:] {
			if b := pt.find(ui); a != b {
				pt.parent[max(a, b)] = min(a, b)
				a = min(a, b)
			}
		}
	}
	// Every link points to a smaller row, so one ascending pass leaves each
	// row pointing straight at its root.
	for i, up := range pt.parent {
		pt.parent[i] = pt.parent[up]
	}

	// Key each component by the smallest video id of its requests.
	pt.rootComp = slices.Grow(pt.rootComp[:0], nUp)[:nUp]
	for i := range pt.rootComp {
		pt.rootComp[i] = -1
	}
	pt.reqComp = slices.Grow(pt.reqComp[:0], nReq)[:nReq]
	comps := pt.comps[:0]
	for ri := 0; ri < nReq; ri++ {
		rows := in.Rows(ri)
		if len(rows) == 0 {
			pt.reqComp[ri] = -1
			p.Orphans = append(p.Orphans, ri)
			continue
		}
		root := pt.parent[rows[0]]
		v := in.Requests[ri].Chunk.Video
		c := pt.rootComp[root]
		if c < 0 {
			c = int32(len(comps))
			pt.rootComp[root] = c
			comps = append(comps, component{key: v})
		} else if v < comps[c].key {
			comps[c].key = v
		}
		pt.reqComp[ri] = c
	}
	pt.comps = comps

	// Group the components by key: one shard per distinct key, in key order.
	byKey := pt.byKey[:0]
	for c := range comps {
		byKey = append(byKey, int32(c))
	}
	slices.SortFunc(byKey, func(a, b int32) int { return cmp.Compare(comps[a].key, comps[b].key) })
	pt.byKey = byKey
	shards := p.Shards[:0]
	for _, c := range byKey {
		if n := len(shards); n == 0 || shards[n-1].Key != comps[c].key {
			shards = append(shards, Shard{Key: comps[c].key})
		}
		comps[c].shard = int32(len(shards) - 1)
	}

	// Count each shard's members, noting each row's shard; then carve the
	// arenas and fill them in parent order.
	n := len(shards)
	count := slices.Grow(pt.count[:0], 2*n)[:2*n] // n request counts, then n uploader counts
	clear(count)
	pt.count = count
	p.shardOf = slices.Grow(p.shardOf[:0], nUp)[:nUp]
	p.sinkOf = slices.Grow(p.sinkOf[:0], nUp)[:nUp]
	for ri, c := range pt.reqComp {
		if c >= 0 {
			s := comps[c].shard
			pt.reqComp[ri] = s
			count[s]++
		}
	}
	for ui := 0; ui < nUp; ui++ {
		s := int32(-1)
		if c := pt.rootComp[pt.parent[ui]]; c >= 0 {
			s = comps[c].shard
			count[n+int(s)]++
		} else {
			p.IdleUploaders = append(p.IdleUploaders, ui)
		}
		p.shardOf[ui] = s
	}
	reqs, ups := nReq-len(p.Orphans), nUp-len(p.IdleUploaders)
	pt.reqArena = slices.Grow(pt.reqArena[:0], reqs)[:reqs]
	pt.upArena = slices.Grow(pt.upArena[:0], ups)[:ups]
	reqs, ups = 0, 0
	for s := range shards {
		sh := &shards[s]
		sh.Requests = pt.reqArena[reqs : reqs : reqs+count[s]]
		reqs += count[s]
		sh.Uploaders = pt.upArena[ups : ups : ups+count[n+s]]
		ups += count[n+s]
	}
	for ri, s := range pt.reqComp {
		if s >= 0 {
			shards[s].Requests = append(shards[s].Requests, ri)
		}
	}
	for ui, s := range p.shardOf {
		p.sinkOf[ui] = -1
		if s >= 0 {
			p.sinkOf[ui] = int32(len(shards[s].Uploaders))
			shards[s].Uploaders = append(shards[s].Uploaders, ui)
		}
	}
	p.Shards = shards
	return p
}
