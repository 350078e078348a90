// Package tracker implements the paper's tracker server: it keeps track of
// online peers and bootstraps (new) peers with a list of neighbors watching
// the same video with close playback positions (§V). Seed peers for the video
// are always included first — they are the content anchors every swarm needs.
package tracker

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/isp"
	"repro/internal/video"
)

// Entry is one online peer as the tracker sees it.
type Entry struct {
	Peer     isp.PeerID
	Video    video.ID
	Position video.ChunkIndex
	Seed     bool
}

// Tracker is the registry. It is not safe for concurrent use; the simulation
// control loop owns it.
type Tracker struct {
	entries map[isp.PeerID]*Entry
	byVideo map[video.ID]map[isp.PeerID]*Entry
	// version stamps every mutation; the per-swarm positional indexes and
	// any other derived views rebuild lazily when stale, so a whole
	// neighbor-refresh pass over a 100k-peer network sorts each swarm once
	// instead of once per member.
	version uint64
	index   map[video.ID]*swarmIndex
	gather  []gathered
}

// swarmIndex is one swarm's cached positional view: seeds ascending by id,
// watchers ascending by (position, id). Valid while version matches the
// tracker's.
type swarmIndex struct {
	version  uint64
	fresh    bool
	seeds    []*Entry
	watchers []*Entry
}

// gathered is one candidate pulled by the outward walk: the entry plus its
// position distance to the requesting peer.
type gathered struct {
	e *Entry
	d video.ChunkIndex
}

// New creates an empty tracker.
func New() *Tracker {
	return &Tracker{
		entries: make(map[isp.PeerID]*Entry),
		byVideo: make(map[video.ID]map[isp.PeerID]*Entry),
		index:   make(map[video.ID]*swarmIndex),
	}
}

// touch invalidates every derived view.
func (t *Tracker) touch() { t.version++ }

// swarm returns v's positional index, rebuilding it when any mutation
// happened since it was last built.
func (t *Tracker) swarm(v video.ID) *swarmIndex {
	idx := t.index[v]
	if idx == nil {
		idx = &swarmIndex{}
		t.index[v] = idx
	}
	if idx.version == t.version && idx.fresh {
		return idx
	}
	idx.seeds = idx.seeds[:0]
	idx.watchers = idx.watchers[:0]
	for _, e := range t.byVideo[v] {
		if e.Seed {
			idx.seeds = append(idx.seeds, e)
		} else {
			idx.watchers = append(idx.watchers, e)
		}
	}
	slices.SortFunc(idx.seeds, func(a, b *Entry) int {
		return int(a.Peer - b.Peer)
	})
	slices.SortFunc(idx.watchers, func(a, b *Entry) int {
		if a.Position != b.Position {
			return int(a.Position - b.Position)
		}
		return int(a.Peer - b.Peer)
	})
	idx.version, idx.fresh = t.version, true
	return idx
}

// Join registers a peer. Double joins are an error (the peer must Leave
// first).
func (t *Tracker) Join(e Entry) error {
	if _, ok := t.entries[e.Peer]; ok {
		return fmt.Errorf("tracker: peer %d already online", e.Peer)
	}
	entry := e
	t.entries[e.Peer] = &entry
	vm, ok := t.byVideo[e.Video]
	if !ok {
		vm = make(map[isp.PeerID]*Entry)
		t.byVideo[e.Video] = vm
	}
	vm[e.Peer] = &entry
	t.touch()
	return nil
}

// Leave removes a peer; unknown peers are a no-op (departure messages can
// race).
func (t *Tracker) Leave(p isp.PeerID) {
	e, ok := t.entries[p]
	if !ok {
		return
	}
	delete(t.entries, p)
	delete(t.byVideo[e.Video], p)
	if len(t.byVideo[e.Video]) == 0 {
		delete(t.byVideo, e.Video)
		delete(t.index, e.Video)
	}
	t.touch()
}

// UpdatePosition records a peer's playback progress so future neighbor lists
// stay position-aware.
func (t *Tracker) UpdatePosition(p isp.PeerID, pos video.ChunkIndex) {
	if e, ok := t.entries[p]; ok && e.Position != pos {
		e.Position = pos
		t.touch()
	}
}

// Online returns the number of registered peers (seeds included).
func (t *Tracker) Online() int { return len(t.entries) }

// Lookup returns a peer's entry.
func (t *Tracker) Lookup(p isp.PeerID) (Entry, bool) {
	e, ok := t.entries[p]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Watching returns how many peers (including seeds) are on video v.
func (t *Tracker) Watching(v video.ID) int { return len(t.byVideo[v]) }

// SwarmPeers returns every online peer (seeds included) on video v, sorted
// by peer id — the by-video shard index: the swarm a cluster shard is keyed
// on, and the fan-out set DES seeds broadcast to. Returns nil when nobody is
// on v.
func (t *Tracker) SwarmPeers(v video.ID) []isp.PeerID {
	vm := t.byVideo[v]
	if len(vm) == 0 {
		return nil
	}
	out := make([]isp.PeerID, 0, len(vm))
	for p := range vm {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Neighbors builds the bootstrap neighbor list for peer p: all seeds of p's
// video first, then other watchers ordered by playback-position distance
// (ties by peer id), truncated to max. Unknown peers are an error.
//
// The list is served from the swarm's cached positional index: an outward
// two-pointer walk from p's position locus pulls candidates in
// nondecreasing distance order (plus the distance-tied tail, so boundary
// ties resolve by id exactly as the full sort did), and only that handful
// is sorted. A refresh pass over the whole network therefore sorts each
// swarm once — the per-member whole-swarm sort was three quarters of the
// 100k-peer presets' wall-clock.
func (t *Tracker) Neighbors(p isp.PeerID, max int) ([]isp.PeerID, error) {
	return t.AppendNeighbors(nil, p, max)
}

// AppendNeighbors is Neighbors appending into dst (reset by the caller) —
// the allocation-free variant for the simulator's per-slot refresh, which
// recycles each peer's previous neighbor list.
func (t *Tracker) AppendNeighbors(dst []isp.PeerID, p isp.PeerID, max int) ([]isp.PeerID, error) {
	self, ok := t.entries[p]
	if !ok {
		return nil, fmt.Errorf("tracker: unknown peer %d", p)
	}
	if max <= 0 {
		return dst, nil
	}
	idx := t.swarm(self.Video)
	out := dst
	for _, e := range idx.seeds {
		if e.Peer == self.Peer {
			continue
		}
		if len(out) == max {
			return out, nil
		}
		out = append(out, e.Peer)
	}
	need := max - len(out)
	if need <= 0 {
		return out, nil
	}
	w := idx.watchers
	r := sort.Search(len(w), func(i int) bool { return w[i].Position >= self.Position })
	l := r - 1
	t.gather = t.gather[:0]
	var lastD video.ChunkIndex
	for l >= 0 || r < len(w) {
		var e *Entry
		var d video.ChunkIndex
		switch {
		case l < 0:
			e, d = w[r], positionDistance(w[r].Position, self.Position)
			r++
		case r >= len(w):
			e, d = w[l], positionDistance(w[l].Position, self.Position)
			l--
		default:
			dl := positionDistance(w[l].Position, self.Position)
			dr := positionDistance(w[r].Position, self.Position)
			if dl <= dr {
				e, d = w[l], dl
				l--
			} else {
				e, d = w[r], dr
				r++
			}
		}
		if e.Peer == self.Peer {
			continue
		}
		if len(t.gather) >= need && d > lastD {
			break // anything further is strictly farther than the worst kept
		}
		t.gather = append(t.gather, gathered{e: e, d: d})
		lastD = d
	}
	g := t.gather
	slices.SortFunc(g, func(a, b gathered) int {
		if a.d != b.d {
			return int(a.d - b.d)
		}
		return int(a.e.Peer - b.e.Peer)
	})
	for _, c := range g {
		if len(out) == max {
			break
		}
		out = append(out, c.e.Peer)
	}
	return out, nil
}

func positionDistance(a, b video.ChunkIndex) video.ChunkIndex {
	if a > b {
		return a - b
	}
	return b - a
}
