package main

import (
	"math/rand/v2"
	"strconv"

	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/video"
)

// The daemon workload's client population. A fifth of the peers upload:
// they re-offer their capacity every tick. The rest download one video each:
// every tick a downloader bids for the first bidsPerTick chunks of its
// window it does not have yet, naming candsPerBid distinct uploaders, then
// polls its grants. Playback consumes one chunk per tick whether it arrived
// or not, so ungranted chunks are re-bid at rising urgency until they fall
// behind the playback point. A few peers leave and are replaced each tick.
const (
	genPeers       = 250
	uploaderEvery  = 5 // one peer in five uploads
	bidsPerTick    = 4
	candsPerBid    = 6
	churnPerTick   = 2
	genISPs        = 4
	genVideos      = 20
	windowChunks   = 64
	minUpCapacity  = 1
	maxUpCapacity  = 5
	intraISPCost   = 0.2
	interISPCost   = 1.0
	costJitter     = 0.1
	baseValue      = 1.0
	urgencyValue   = 4.0
	valueJitter    = 0.05
	chunkLeadSecs  = 0.5 // playback time per chunk of lead
	firstPeerID    = 1
	rebidDeadlineS = 0.25 // deadline of the chunk at the playback point
)

type genPeer struct {
	id       int64
	isp      int
	uploader bool
	capacity int
	video    int32
	next     int32  // playback point: the lowest chunk still wanted
	got      uint64 // bit i: chunk next+i has arrived
	bids     []service.WireBid
}

// generator produces the daemon workload's requests from a seed. Its state
// advances only through its own draws and the grants it is told about, so
// one seed against a deterministic daemon yields one request stream.
type generator struct {
	rng    *rand.Rand
	nextID int64
	peers  []*genPeer // live peers in join order
	ups    []*genPeer // live uploaders in join order
	pick   []int      // scratch for candidate draws
}

func newGenerator(seed uint64) *generator {
	return &generator{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), nextID: firstPeerID}
}

// join mints a peer; capacity > 0 makes it an uploader. Capacities are
// fixed by the caller, not drawn, so the total supply is the same under
// every seed.
func (g *generator) join(capacity int) *genPeer {
	p := &genPeer{
		id:       g.nextID,
		isp:      g.rng.IntN(genISPs),
		uploader: capacity > 0,
		capacity: capacity,
		video:    int32(g.rng.IntN(genVideos)),
		next:     int32(g.rng.IntN(1000)),
	}
	g.nextID++
	g.peers = append(g.peers, p)
	g.rebuildUploaders()
	return p
}

// leave removes a random live peer of the given role and returns it.
func (g *generator) leave(uploader bool) *genPeer {
	var idx []int
	for i, p := range g.peers {
		if p.uploader == uploader {
			idx = append(idx, i)
		}
	}
	i := idx[g.rng.IntN(len(idx))]
	p := g.peers[i]
	g.peers = append(g.peers[:i], g.peers[i+1:]...)
	g.rebuildUploaders()
	return p
}

func (g *generator) rebuildUploaders() {
	g.ups = g.ups[:0]
	for _, p := range g.peers {
		if p.uploader {
			g.ups = append(g.ups, p)
		}
	}
}

// cost is the network cost of a transfer from up to down.
func (g *generator) cost(up, down *genPeer) float64 {
	c := interISPCost
	if up.isp == down.isp {
		c = intraISPCost
	}
	return c + costJitter*g.rng.Float64()
}

// plan draws a downloader's bids for this tick into p.bids.
func (g *generator) plan(p *genPeer) {
	p.bids = p.bids[:0]
	for off := 0; off < windowChunks && len(p.bids) < bidsPerTick; off++ {
		if p.got&(1<<off) != 0 {
			continue
		}
		var cands []service.WireCandidate
		if n := len(p.bids); n < cap(p.bids) {
			cands = p.bids[:n+1][n].Candidates[:0] // reuse last tick's backing array
		}
		b := service.WireBid{
			Video:      p.video,
			Chunk:      p.next + int32(off),
			Value:      baseValue + urgencyValue/float64(1+off) + valueJitter*g.rng.Float64(),
			Deadline:   rebidDeadlineS + chunkLeadSecs*float64(off),
			Candidates: cands,
		}
		g.pick = g.pick[:0]
		for i := range g.ups {
			g.pick = append(g.pick, i)
		}
		// Partial Fisher–Yates: candsPerBid distinct uploaders, as a
		// well-formed client must name them.
		for k := 0; k < candsPerBid && k < len(g.pick); k++ {
			j := k + g.rng.IntN(len(g.pick)-k)
			g.pick[k], g.pick[j] = g.pick[j], g.pick[k]
			up := g.ups[g.pick[k]]
			b.Candidates = append(b.Candidates, service.WireCandidate{Peer: up.id, Cost: g.cost(up, p)})
		}
		p.bids = append(p.bids, b)
	}
}

// granted records an arrived chunk.
func (p *genPeer) granted(chunk int32) {
	if off := chunk - p.next; off >= 0 && off < windowChunks {
		p.got |= 1 << off
	}
}

// advance plays one chunk: the window slides whether or not it arrived.
func (p *genPeer) advance() {
	p.next++
	p.got >>= 1
}

// JSON bodies are written by hand into a reused buffer: the client's own
// encoding stays cheap and its bytes are a pure function of the state.

func appendJoin(b []byte, p *genPeer) []byte {
	b = append(b, `{"peer":`...)
	b = strconv.AppendInt(b, p.id, 10)
	b = append(b, `,"isp":`...)
	b = strconv.AppendInt(b, int64(p.isp), 10)
	return append(b, '}')
}

func appendPeer(b []byte, id int64) []byte {
	b = append(b, `{"peer":`...)
	b = strconv.AppendInt(b, id, 10)
	return append(b, '}')
}

func appendOffer(b []byte, p *genPeer) []byte {
	b = append(b, `{"peer":`...)
	b = strconv.AppendInt(b, p.id, 10)
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, int64(p.capacity), 10)
	return append(b, '}')
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

func appendBids(b []byte, p *genPeer) []byte {
	b = append(b, `{"peer":`...)
	b = strconv.AppendInt(b, p.id, 10)
	b = append(b, `,"bids":[`...)
	for i, bid := range p.bids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"video":`...)
		b = strconv.AppendInt(b, int64(bid.Video), 10)
		b = append(b, `,"chunk":`...)
		b = strconv.AppendInt(b, int64(bid.Chunk), 10)
		b = append(b, `,"value":`...)
		b = appendFloat(b, bid.Value)
		b = append(b, `,"deadline":`...)
		b = appendFloat(b, bid.Deadline)
		b = append(b, `,"candidates":[`...)
		for j, c := range bid.Candidates {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"peer":`...)
			b = strconv.AppendInt(b, c.Peer, 10)
			b = append(b, `,"cost":`...)
			b = appendFloat(b, c.Cost)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// bidRequests converts a peer's bids to the daemon's direct-call form.
func bidRequests(p *genPeer) []service.BidRequest {
	out := make([]service.BidRequest, 0, len(p.bids))
	for _, b := range p.bids {
		cands := make([]sched.Candidate, 0, len(b.Candidates))
		for _, c := range b.Candidates {
			cands = append(cands, sched.Candidate{Peer: isp.PeerID(c.Peer), Cost: c.Cost})
		}
		out = append(out, service.BidRequest{
			Chunk:      video.ChunkID{Video: video.ID(b.Video), Index: video.ChunkIndex(b.Chunk)},
			Value:      b.Value,
			Deadline:   b.Deadline,
			Candidates: cands,
		})
	}
	return out
}
