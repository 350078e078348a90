package cluster

import (
	"fmt"
	"slices"

	"repro/internal/sched"
	"repro/internal/video"
)

// incrementalPartitioner maintains shard membership across slots instead of
// re-partitioning the whole request/uploader graph every Schedule. The
// producer's sched.InstanceDelta names exactly which rows churned; every
// shard untouched by the churn keeps its membership (remapped to the new
// row numbers — carried rows preserve relative order, so the remap is a
// linear pass), and only the dirty shards' subgraph is re-run through
// union-find. The output is defined to be identical to a from-scratch
// PartitionInstance(in, 0, nil) — pinned by TestIncrementalPartitionEqualsFull
// — so which path produced a partition is unobservable downstream. After a
// carried update, project maps the producer's delta onto the rows of each
// shard that kept its key, so its solver need not re-derive it.
//
// Dirtiness closure: a removed row dirties its shard (the component may
// split); a new or edge-rewritten request dirties its previous shard and
// every shard holding one of its candidate uploaders (components may
// merge), and drags previously idle or new candidate uploaders into the
// re-find subset. A clean shard's requests reference only its own
// uploaders (that is what a component is), so no edge crosses the
// clean/dirty boundary and one marking pass closes the set.
//
// ISP-affinity refinement (maxPeers > 0) re-slices oversized shards by a
// cost heuristic that is not locally maintainable; ShardedAuction keeps the
// full PartitionInstance path for that configuration.
type incrementalPartitioner struct {
	valid bool
	// cur/spare double-buffer the retained state: the previous slot's
	// partition and row→shard maps are read while the new ones are built.
	cur, spare partitionState

	// Lifecycle counters (surfaced through ShardedAuction.Stats).
	incremental, rebuilds int64

	// prevOf maps each shard of the current partition to the index of the
	// same-key shard in the previous one (-1: a new key). It is filled only
	// by a carried update, the one case in which project can map the
	// producer's delta onto a shard; it is empty otherwise.
	prevOf []int32

	// Scratch reused across slots.
	p2cUp, p2cReq []int32
	dirtyShard    []bool
	inSetUp       []bool
	inSetReq      []bool
	ufParent      []int32
	cleanFlags    []bool
	rootComp      []int32 // union-find root row → index in comps (-1: none)
	comps         []component
	groups        []refoundGroup
	groupOf       map[video.ID]int32
	usedKey       map[video.ID]int
	pendingBuf    []pendingShard
}

// component is one re-found connected component: its swarm key (the
// smallest video id of its requests) and the re-found group it joins.
type component struct {
	key   video.ID
	group int32
}

// refoundGroup is one re-found shard under construction: its key and its
// member lists, carved from the arena after a counting pass. nReq/nUp count
// the members, then serve as the fill cursors.
type refoundGroup struct {
	key       video.ID
	nReq, nUp int
	reqs, ups []int
}

// pendingShard stages one output shard (carried or re-found) before the
// final key sort.
type pendingShard struct {
	shard Shard
	clean bool
}

// partitionState is one retained slot's partition plus its row→shard maps
// (shard indices refer to part.Shards; -1 = idle uploader / orphan request)
// and each member row's position in its shard's list — its row in that
// shard's sub-instance.
type partitionState struct {
	part                  Partition
	shardOfUp, shardOfReq []int32
	localOfUp, localOfReq []int32
	rowArena              []int // backing storage for the shards' member lists
}

// reset prepares the state for reuse as the next slot's build target.
func (s *partitionState) reset() {
	s.part.Shards = s.part.Shards[:0]
	s.part.IdleUploaders = s.part.IdleUploaders[:0]
	s.part.Orphans = s.part.Orphans[:0]
	s.part.CutEdges = 0
	s.part.Refined = 0
	s.shardOfUp = s.shardOfUp[:0]
	s.shardOfReq = s.shardOfReq[:0]
	s.localOfUp = s.localOfUp[:0]
	s.localOfReq = s.localOfReq[:0]
	s.rowArena = s.rowArena[:0]
}

// invalidate drops the carried state (the next update rebuilds).
func (ip *incrementalPartitioner) invalidate() {
	ip.valid = false
	ip.prevOf = ip.prevOf[:0]
}

// update returns the slot's partition and, when membership was carried, a
// per-shard clean flag (clean = identical membership and candidate lists as
// the previous slot — only values/capacities may differ — so the shard's
// solver can take an identity delta). The returned partition and flags are
// valid until the next update.
func (ip *incrementalPartitioner) update(in *sched.Instance, d *sched.InstanceDelta) (*Partition, []bool) {
	ip.prevOf = ip.prevOf[:0]
	if d != nil && ip.valid &&
		len(d.PrevUp) == len(in.Uploaders) && len(d.PrevReq) == len(in.Requests) &&
		len(d.SameCands) == len(in.Requests) {
		if d.Identity {
			// Same rows, same edges: the partition is exactly last slot's.
			ip.incremental++
			ip.cleanFlags = resizeBool(ip.cleanFlags, len(ip.cur.part.Shards))
			for i := range ip.cleanFlags {
				ip.cleanFlags[i] = true
			}
			return &ip.cur.part, ip.cleanFlags
		}
		part, clean, err := ip.updateIncremental(in, d)
		if err == nil {
			ip.incremental++
			return part, clean
		}
		// Inconsistent delta: fall through to the full rebuild (never
		// wrong, only slower). The error is intentionally not surfaced —
		// the rebuild recovers completely.
	}
	return ip.rebuild(in)
}

// rebuild runs the full partition and captures its row→shard maps as the
// next slot's baseline.
func (ip *incrementalPartitioner) rebuild(in *sched.Instance) (*Partition, []bool) {
	part := PartitionInstance(in, 0, nil)
	ip.rebuilds++
	st := &ip.cur
	st.reset()
	st.part = *part
	ip.captureMaps(st, len(in.Uploaders), len(in.Requests))
	ip.valid = true
	return &st.part, nil
}

// captureMaps derives the row→shard and row→position maps from st.part.
func (ip *incrementalPartitioner) captureMaps(st *partitionState, nUp, nReq int) {
	st.shardOfUp = resizeInt32(st.shardOfUp, nUp, -1)
	st.shardOfReq = resizeInt32(st.shardOfReq, nReq, -1)
	st.localOfUp = resizeInt32(st.localOfUp, nUp, -1)
	st.localOfReq = resizeInt32(st.localOfReq, nReq, -1)
	for si := range st.part.Shards {
		sh := &st.part.Shards[si]
		for j, ui := range sh.Uploaders {
			st.shardOfUp[ui], st.localOfUp[ui] = int32(si), int32(j)
		}
		for j, ri := range sh.Requests {
			st.shardOfReq[ri], st.localOfReq[ri] = int32(si), int32(j)
		}
	}
}

// updateIncremental is the carried-membership path; an error means the
// delta contradicts the carried state and the caller must rebuild.
func (ip *incrementalPartitioner) updateIncremental(in *sched.Instance, d *sched.InstanceDelta) (*Partition, []bool, error) {
	nUp, nReq := len(in.Uploaders), len(in.Requests)
	prev := &ip.cur
	prevUps, prevReqs := len(prev.shardOfUp), len(prev.shardOfReq)
	nShards := len(prev.part.Shards)

	// Previous-row → current-row maps (scratch lives on the struct so its
	// growth is kept across slots).
	ip.p2cUp = resizeInt32(ip.p2cUp, prevUps, -1)
	p2cUp := ip.p2cUp
	for i, p := range d.PrevUp {
		if p >= 0 {
			if int(p) >= prevUps {
				return nil, nil, fmt.Errorf("cluster: delta uploader row %d out of range", p)
			}
			p2cUp[p] = int32(i)
		}
	}
	ip.p2cReq = resizeInt32(ip.p2cReq, prevReqs, -1)
	p2cReq := ip.p2cReq
	for i, p := range d.PrevReq {
		if p >= 0 {
			if int(p) >= prevReqs {
				return nil, nil, fmt.Errorf("cluster: delta request row %d out of range", p)
			}
			p2cReq[p] = int32(i)
		}
	}

	// Dirtiness closure: removed rows dirty their shards; touched requests
	// (new or edge-rewritten) dirty their previous shard and every
	// candidate uploader's shard, and drag shard-less candidates into the
	// subset directly.
	ip.dirtyShard = resizeBool(ip.dirtyShard, nShards)
	ip.inSetUp = resizeBool(ip.inSetUp, nUp)
	ip.inSetReq = resizeBool(ip.inSetReq, nReq)
	dirty, inSetUp, inSetReq := ip.dirtyShard, ip.inSetUp, ip.inSetReq
	for _, r := range d.RemovedUps {
		if int(r) >= prevUps {
			return nil, nil, fmt.Errorf("cluster: delta removes uploader row %d out of range", r)
		}
		if s := prev.shardOfUp[r]; s >= 0 {
			dirty[s] = true
		}
	}
	for _, r := range d.RemovedReqs {
		if int(r) >= prevReqs {
			return nil, nil, fmt.Errorf("cluster: delta removes request row %d out of range", r)
		}
		if s := prev.shardOfReq[r]; s >= 0 {
			dirty[s] = true
		}
	}
	for ri := 0; ri < nReq; ri++ {
		pr := d.PrevReq[ri]
		if pr >= 0 && d.SameCands[ri] {
			continue
		}
		inSetReq[ri] = true
		if pr >= 0 {
			if s := prev.shardOfReq[pr]; s >= 0 {
				dirty[s] = true
			}
		}
		for _, ui := range in.Rows(ri) {
			inSetUp[ui] = true
			if p := d.PrevUp[ui]; p >= 0 {
				if s := prev.shardOfUp[p]; s >= 0 {
					dirty[s] = true
				}
			}
		}
	}

	// Expand the subset to the dirty shards' full current membership.
	for i := 0; i < nUp; i++ {
		p := d.PrevUp[i]
		if p < 0 {
			inSetUp[i] = true // new uploader
			continue
		}
		if s := prev.shardOfUp[p]; s >= 0 && dirty[s] {
			inSetUp[i] = true
		}
	}
	for ri := 0; ri < nReq; ri++ {
		if inSetReq[ri] {
			continue
		}
		pr := d.PrevReq[ri]
		if pr >= 0 {
			if s := prev.shardOfReq[pr]; s >= 0 && dirty[s] {
				inSetReq[ri] = true
			}
		}
	}

	// Union-find over the subset's uploader rows; each subset request welds
	// its candidate set together (the same phase 1 as PartitionInstance,
	// restricted to the churned subgraph).
	ip.ufParent = resizeInt32(ip.ufParent, nUp, 0)
	parent := ip.ufParent
	for i := 0; i < nUp; i++ {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for ri := 0; ri < nReq; ri++ {
		if !inSetReq[ri] {
			continue
		}
		if rows := in.Rows(ri); len(rows) > 0 {
			for _, ui := range rows[1:] {
				union(rows[0], ui)
			}
		}
	}

	// Key the subset components by min video id (phase 2, on the subset).
	// Roots are uploader rows, so the root → component table is an array;
	// only the per-component grouping consults a map. All of it is struct
	// scratch — this runs every bidding round on the steady-state sharded
	// path, where allocs/op is the headline.
	ip.rootComp = resizeInt32(ip.rootComp, nUp, -1)
	rootComp := ip.rootComp
	comps := ip.comps[:0]
	for ri := 0; ri < nReq; ri++ {
		if !inSetReq[ri] {
			continue
		}
		rows := in.Rows(ri)
		if len(rows) == 0 {
			continue
		}
		root := find(rows[0])
		v := in.Requests[ri].Chunk.Video
		if c := rootComp[root]; c < 0 {
			rootComp[root] = int32(len(comps))
			comps = append(comps, component{key: v})
		} else if v < comps[c].key {
			comps[c].key = v
		}
	}
	ip.comps = comps
	if ip.groupOf == nil {
		ip.groupOf = make(map[video.ID]int32)
		ip.usedKey = make(map[video.ID]int)
	}
	clear(ip.groupOf)
	clear(ip.usedKey)
	groups := ip.groups[:0]
	for c := range comps {
		g, ok := ip.groupOf[comps[c].key]
		if !ok {
			g = int32(len(groups))
			ip.groupOf[comps[c].key] = g
			groups = append(groups, refoundGroup{key: comps[c].key})
		}
		comps[c].group = g
	}
	ip.groups = groups
	// groupOfUp returns subset uploader row i's re-found group (-1: idle
	// within the subset).
	groupOfUp := func(i int32) int32 {
		if c := rootComp[find(i)]; c >= 0 {
			return comps[c].group
		}
		return -1
	}
	members := 0
	for ri := 0; ri < nReq; ri++ {
		if inSetReq[ri] {
			if rows := in.Rows(ri); len(rows) > 0 {
				groups[groupOfUp(rows[0])].nReq++
				members++
			}
		}
	}
	for i := 0; i < nUp; i++ {
		if inSetUp[i] {
			if g := groupOfUp(int32(i)); g >= 0 {
				groups[g].nUp++
				members++
			}
		}
	}

	// Assemble the new state: carried clean shards (rows remapped through
	// p2c; every member must still be present, or the delta lied) plus the
	// re-found groups, merging a re-found group into a carried shard when
	// their keys collide (a component's key migrated onto a clean shard's).
	next := &ip.spare
	next.reset()
	out := ip.pendingBuf[:0]
	usedKey := ip.usedKey // key → index in out, for collision merges
	for si := 0; si < nShards; si++ {
		if dirty[si] {
			continue
		}
		src := &prev.part.Shards[si]
		start := len(next.rowArena)
		for _, ui := range src.Uploaders {
			c := p2cUp[ui]
			if c < 0 {
				return nil, nil, fmt.Errorf("cluster: clean shard %v lost uploader row %d", src.Key, ui)
			}
			next.rowArena = append(next.rowArena, int(c))
		}
		ups := next.rowArena[start:len(next.rowArena):len(next.rowArena)]
		start = len(next.rowArena)
		for _, ri := range src.Requests {
			c := p2cReq[ri]
			if c < 0 {
				return nil, nil, fmt.Errorf("cluster: clean shard %v lost request row %d", src.Key, ri)
			}
			next.rowArena = append(next.rowArena, int(c))
		}
		reqs := next.rowArena[start:len(next.rowArena):len(next.rowArena)]
		usedKey[src.Key.Video] = len(out)
		out = append(out, pendingShard{shard: Shard{Key: src.Key, Requests: reqs, Uploaders: ups}, clean: true})
	}
	// Carve the re-found groups' member lists from the arena (one
	// reservation, so no carved list moves), then fill them in parent row
	// order.
	start := len(next.rowArena)
	next.rowArena = slices.Grow(next.rowArena, members)[:start+members]
	for g := range groups {
		gr := &groups[g]
		gr.reqs = next.rowArena[start : start+gr.nReq : start+gr.nReq]
		start += gr.nReq
		gr.ups = next.rowArena[start : start+gr.nUp : start+gr.nUp]
		start += gr.nUp
		gr.nReq, gr.nUp = 0, 0
	}
	for ri := 0; ri < nReq; ri++ {
		if inSetReq[ri] {
			if rows := in.Rows(ri); len(rows) > 0 {
				gr := &groups[groupOfUp(rows[0])]
				gr.reqs[gr.nReq] = ri
				gr.nReq++
			}
		}
	}
	for i := 0; i < nUp; i++ {
		if inSetUp[i] {
			if g := groupOfUp(int32(i)); g >= 0 {
				gr := &groups[g]
				gr.ups[gr.nUp] = i
				gr.nUp++
			}
		}
	}
	for g := range groups {
		gr := &groups[g]
		if oi, collision := usedKey[gr.key]; collision {
			// Merge into the carried shard, keeping parent order; the shard
			// is no longer identical to last slot's.
			out[oi].shard.Requests = mergeSortedRows(out[oi].shard.Requests, gr.reqs)
			out[oi].shard.Uploaders = mergeSortedRows(out[oi].shard.Uploaders, gr.ups)
			out[oi].clean = false
			continue
		}
		usedKey[gr.key] = len(out)
		out = append(out, pendingShard{shard: Shard{Key: Key{Video: gr.key, ISP: NoISP}, Requests: gr.reqs, Uploaders: gr.ups}})
	}
	slices.SortFunc(out, func(a, b pendingShard) int {
		if a.shard.Key.less(b.shard.Key) {
			return -1
		}
		return 1
	})

	ip.cleanFlags = resizeBool(ip.cleanFlags, len(out))
	for i := range out {
		next.part.Shards = append(next.part.Shards, out[i].shard)
		ip.cleanFlags[i] = out[i].clean
	}
	ip.pendingBuf = out[:0]
	ip.captureMaps(next, nUp, nReq)
	for i := 0; i < nUp; i++ {
		if next.shardOfUp[i] < 0 {
			next.part.IdleUploaders = append(next.part.IdleUploaders, i)
		}
	}
	for ri := 0; ri < nReq; ri++ {
		if next.shardOfReq[ri] < 0 {
			next.part.Orphans = append(next.part.Orphans, ri)
		}
	}
	ip.cur, ip.spare = ip.spare, ip.cur
	ip.linkPrevious()
	return &ip.cur.part, ip.cleanFlags, nil
}

// linkPrevious fills prevOf after a carried update: both partitions are
// sorted by key, so one merge pass pairs the same-key shards.
func (ip *incrementalPartitioner) linkPrevious() {
	cur, prev := ip.cur.part.Shards, ip.spare.part.Shards
	ip.prevOf = slices.Grow(ip.prevOf[:0], len(cur))
	j := 0
	for i := range cur {
		for j < len(prev) && prev[j].Key.less(cur[i].Key) {
			j++
		}
		link := int32(-1)
		if j < len(prev) && prev[j].Key == cur[i].Key {
			link = int32(j)
		}
		ip.prevOf = append(ip.prevOf, link)
	}
}

// project fills dst with shard i's slot-to-slot delta in shard-local rows —
// the rows of its Subset sub-instance — mapped from the producer's delta d,
// and reports whether it could. It can only after a carried update, and
// only for a shard whose key was in the previous partition: that shard's
// solver last saw exactly the previous same-key shard's rows. Local rows
// are positions in the member lists; a row carried from another shard (or
// from nowhere) is new to this one, and a previous member that left the
// shard is removed from it, exactly as a by-key match would find. The
// result is marked Projected. Safe to call concurrently for distinct shards.
func (ip *incrementalPartitioner) project(i int, d, dst *sched.InstanceDelta) bool {
	if i >= len(ip.prevOf) || ip.prevOf[i] < 0 {
		return false
	}
	ps := ip.prevOf[i]
	cur, prev := &ip.cur, &ip.spare
	sh, psh := &cur.part.Shards[i], &prev.part.Shards[ps]
	dst.Identity, dst.Projected = false, true

	dst.PrevUp = dst.PrevUp[:0]
	for _, ui := range sh.Uploaders {
		local := int32(-1)
		if p := d.PrevUp[ui]; p >= 0 && prev.shardOfUp[p] == ps {
			local = prev.localOfUp[p]
		}
		dst.PrevUp = append(dst.PrevUp, local)
	}
	dst.RemovedUps = dst.RemovedUps[:0]
	for j, p := range psh.Uploaders {
		if c := ip.p2cUp[p]; c < 0 || cur.shardOfUp[c] != int32(i) {
			dst.RemovedUps = append(dst.RemovedUps, int32(j))
		}
	}

	dst.PrevReq, dst.SameCands = dst.PrevReq[:0], dst.SameCands[:0]
	for _, ri := range sh.Requests {
		local := int32(-1)
		if p := d.PrevReq[ri]; p >= 0 && prev.shardOfReq[p] == ps {
			local = prev.localOfReq[p]
		}
		dst.PrevReq = append(dst.PrevReq, local)
		dst.SameCands = append(dst.SameCands, local >= 0 && d.SameCands[ri])
	}
	dst.RemovedReqs = dst.RemovedReqs[:0]
	for j, p := range psh.Requests {
		if c := ip.p2cReq[p]; c < 0 || cur.shardOfReq[c] != int32(i) {
			dst.RemovedReqs = append(dst.RemovedReqs, int32(j))
		}
	}
	return true
}

// mergeSortedRows merges two ascending row lists into a fresh ascending
// list (collision merges are churn-rare; no arena needed).
func mergeSortedRows(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// resizeInt32 returns buf resized to n, filled with fill.
func resizeInt32(buf []int32, n int, fill int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// resizeBool returns buf resized to n, cleared.
func resizeBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}
