package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/auction"
	"repro/internal/cdn"
	"repro/internal/isp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/peer"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/video"
)

// desEventGuard caps events per bidding round as a runaway safety net.
const desEventGuard = 50_000_000

// DES is the auction-des slot scheduler: it solves each bidding round by
// playing the paper's distributed auction (Algorithm 1) message by message —
// bids, rejections, evictions, price broadcasts — over the discrete-event
// network, with per-message latency = CostLatencyUnit × network cost.
// Theorem 1 says it reaches the centralized auction's assignment.
//
// Its protocol nodes are the world's peers, not the instance's rows: they
// persist across rounds, auctioneers broadcast λ_u to the world's neighbor
// lists, seeds to their swarm's watchers, and CDN servers to the watchers
// whose requests list them this round. Run binds it to the world before the
// first slot (it schedules nothing elsewhere) and, after the last, reports a
// representative peer's λ_u trace as Results.PriceTrace (Fig. 2). Each
// message is lost with probability cfg.Fault.DropProb, without
// retransmission. The zero value is ready; use one DES per run.
type DES struct {
	w        *world
	netSched *netsim.Scheduler
	network  *netsim.Network
	nodes    map[isp.PeerID]*peer.Node
	traces   map[isp.PeerID]*metrics.Series
	// slot and round locate the round being scheduled: Run calls Schedule
	// once per bidding round, so a changed w.slot marks a slot boundary.
	slot, round int
}

var _ sched.Scheduler = (*DES)(nil)

// Name implements sched.Scheduler.
func (d *DES) Name() string { return "auction-des" }

// bind implements worldScheduler: a fresh network on the world's cost model
// whose loss stream is derived from the run's seed.
func (d *DES) bind(w *world) error {
	netSched := netsim.NewScheduler()
	latency := func(from, to netsim.NodeID) time.Duration {
		return time.Duration(float64(w.cfg.CostLatencyUnit) *
			w.topo.MustCost(isp.PeerID(from), isp.PeerID(to)))
	}
	network, err := netsim.NewNetwork(netSched, latency, randx.New(w.cfg.Seed).Derive(99))
	if err != nil {
		return err
	}
	network.SetDropRate(w.cfg.Fault.DropProb)
	*d = DES{
		w:        w,
		netSched: netSched,
		network:  network,
		nodes:    make(map[isp.PeerID]*peer.Node),
		traces:   make(map[isp.PeerID]*metrics.Series),
		slot:     -1,
	}
	return nil
}

// finish implements worldScheduler.
func (d *DES) finish(res *Results) {
	horizon := float64(d.w.cfg.Slots) * d.w.cfg.SlotSeconds
	res.PriceTrace = pickTrace(d.traces, horizon, d.w.cfg.SlotSeconds)
}

// Schedule implements sched.Scheduler: the round's distributed auction, run
// to quiescence, with the auctioneers' books as the grants and every node's
// closing λ_u as the prices.
func (d *DES) Schedule(in *sched.Instance) (*sched.Result, error) {
	w := d.w
	if w == nil {
		return nil, fmt.Errorf("sim: %s schedules only under sim.Run", d.Name())
	}
	if w.slot != d.slot {
		// The world has refreshed its neighbor lists and applied the last
		// slot's departures and arrivals.
		d.slot, d.round = w.slot, 0
		if err := d.syncNodes(); err != nil {
			return nil, err
		}
	} else {
		d.round++
	}
	if w.cfg.CDN.Enabled {
		d.fanOutCDN(in)
	}
	grants, err := d.play(in)
	if err != nil {
		return nil, err
	}
	prices := make(map[isp.PeerID]float64, len(d.nodes))
	for id, node := range d.nodes {
		prices[id] = node.Price()
	}
	return &sched.Result{Grants: grants, Prices: prices}, nil
}

// pickTrace selects the reported λ_u series — the most consistently contended
// node's — and expands it into a sample-and-hold step function so the
// sawtooth of Fig. 2 renders faithfully. The paper plots "a representative
// peer", i.e. one that actually sees bidding competition: "consistently
// contended" means positive prices in the most distinct slots (a sawtooth
// every slot, not one warm-up burst), with ties broken by sample count then
// peak.
func pickTrace(traces map[isp.PeerID]*metrics.Series, horizon, slotSeconds float64) *metrics.Series {
	step := slotSeconds / 20
	var best *metrics.Series
	bestSlots, bestSamples := -1, -1
	bestPeak := -1.0
	var bestID isp.PeerID
	ids := make([]isp.PeerID, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := traces[id]
		hotSlots := make(map[int]bool)
		samples := 0
		peak := 0.0
		for _, p := range s.Points {
			if p.V > 0 {
				hotSlots[int(p.T/slotSeconds)] = true
				samples++
			}
			if p.V > peak {
				peak = p.V
			}
		}
		better := len(hotSlots) > bestSlots ||
			(len(hotSlots) == bestSlots && samples > bestSamples) ||
			(len(hotSlots) == bestSlots && samples == bestSamples && peak > bestPeak)
		if better {
			best, bestSlots, bestSamples, bestPeak, bestID = s, len(hotSlots), samples, peak, id
		}
	}
	if best == nil {
		return &metrics.Series{Name: "lambda"}
	}
	out := stepExpand(best, horizon, step)
	out.Name = fmt.Sprintf("lambda(peer %d)", bestID)
	return out
}

// stepExpand resamples a sparse change-point series as a step function over
// [first-sample, horizon] with the given resolution.
func stepExpand(s *metrics.Series, horizon, step float64) *metrics.Series {
	out := &metrics.Series{Name: s.Name}
	if s.Len() == 0 || step <= 0 {
		return out
	}
	idx := 0
	current := s.Points[0].V
	for t := s.Points[0].T; t <= horizon; t += step {
		for idx < len(s.Points) && s.Points[idx].T <= t {
			current = s.Points[idx].V
			idx++
		}
		if err := out.Add(t, current); err != nil {
			break // cannot happen: t is strictly increasing
		}
	}
	return out
}

// syncNodes reconciles the node set with the world's population and pushes
// fresh neighbor lists, once per slot.
func (d *DES) syncNodes() error {
	w := d.w
	for id, node := range d.nodes {
		if w.peers[id] == nil {
			node.Shutdown()
			delete(d.nodes, id)
		}
	}
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		if _, ok := d.nodes[id]; ok {
			continue
		}
		node, err := peer.New(id, d.netSched, d.network, w.cfg.Epsilon)
		if err != nil {
			return err
		}
		series := &metrics.Series{Name: "lambda"}
		d.traces[id] = series
		node.SetPriceHook(func(at time.Duration, price float64) {
			// Same-timestamp samples are fine; the series only requires
			// non-decreasing time, which event order guarantees.
			_ = series.Add(at.Seconds(), price)
		})
		d.nodes[id] = node
	}
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		p := w.peers[id]
		switch {
		case p.tier != cdn.TierP2P:
			// CDN servers are in no swarm; fanOutCDN sets their lists per
			// round.
		case p.seed:
			// Seeds never bid, but they broadcast price updates to the
			// watchers they serve: every watcher on their video (the
			// tracker knows them all).
			d.nodes[id].SetNeighbors(watchersOf(w, p.vid, id))
		default:
			d.nodes[id].SetNeighbors(p.neighbors)
		}
	}
	return nil
}

// watchersOf lists online watchers of video v (excluding exclude), via the
// tracker's by-video shard index rather than a full population scan.
func watchersOf(w *world, v video.ID, exclude isp.PeerID) []isp.PeerID {
	var out []isp.PeerID
	for _, id := range w.track.SwarmPeers(v) {
		if p := w.peers[id]; id != exclude && p != nil && !p.seed {
			out = append(out, id)
		}
	}
	return out
}

// fanOutCDN points each CDN server's price broadcasts at the watchers whose
// requests list it this round. A watcher's requests are contiguous in the
// instance, so comparing against the last entry deduplicates.
func (d *DES) fanOutCDN(in *sched.Instance) {
	fans := make(map[isp.PeerID][]isp.PeerID)
	for i := range in.Requests {
		r := &in.Requests[i]
		for _, c := range r.Candidates {
			if d.w.peers[c.Peer].tier == cdn.TierP2P {
				continue
			}
			if f := fans[c.Peer]; len(f) == 0 || f[len(f)-1] != r.Peer {
				fans[c.Peer] = append(f, r.Peer)
			}
		}
	}
	for _, id := range d.w.order {
		if id != noPeer && d.w.peers[id].tier != cdn.TierP2P {
			d.nodes[id].SetNeighbors(fans[id])
		}
	}
}

// play runs the round's distributed auction to quiescence and reads the
// grants off the auctioneers' books.
func (d *DES) play(in *sched.Instance) ([]sched.Grant, error) {
	w, j := d.w, d.round
	// Index requests by (peer, chunk) to translate auction wins to grants.
	type reqKey struct {
		peer  isp.PeerID
		chunk video.ChunkID
	}
	reqIdx := make(map[reqKey]int, len(in.Requests))
	perPeer := make(map[isp.PeerID][]auction.Request)
	for ri := range in.Requests {
		r := &in.Requests[ri]
		reqIdx[reqKey{peer: r.Peer, chunk: r.Chunk}] = ri
		cands := make([]auction.Candidate, 0, len(r.Candidates))
		for _, c := range r.Candidates {
			cands = append(cands, auction.Candidate{
				Peer: auction.PeerRef(c.Peer),
				Cost: c.Cost,
			})
		}
		perPeer[r.Peer] = append(perPeer[r.Peer], auction.Request{
			Chunk:      r.Chunk,
			Value:      r.Value,
			Candidates: cands,
		})
	}
	// Align the network clock with the round's wall-clock start so the λ_u
	// trace lines up with slot boundaries (Fig. 2's x-axis). If the previous
	// round's auction overran its sub-slot, time simply continues.
	roundStart := time.Duration((float64(w.slot)*w.cfg.SlotSeconds + w.tauOf(j)) *
		float64(time.Second))
	if d.netSched.Now() < roundStart {
		if err := d.netSched.RunUntil(roundStart, desEventGuard); err != nil {
			return nil, err
		}
	}
	// Open the round on every node: allocators reset with the round's
	// capacity share; bidders fire their initial bids.
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		capacity := roundCapacity(w.peers[id].capacity, j, w.cfg.BidRoundsPerSlot)
		if err := d.nodes[id].StartSlot(perPeer[id], capacity); err != nil {
			return nil, err
		}
	}
	// Let the auction play out to quiescence (the paper's convergence within
	// the slot; Fig. 2 shows it takes a few seconds of message exchange).
	if err := d.netSched.Drain(desEventGuard); err != nil {
		return nil, err
	}
	var grants []sched.Grant
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		for _, win := range d.nodes[id].Winners() {
			ri, ok := reqIdx[reqKey{peer: isp.PeerID(win.Bidder), chunk: win.Chunk}]
			if !ok {
				return nil, fmt.Errorf("sim: auctioneer %d sold to unknown request (%d,%v)",
					id, win.Bidder, win.Chunk)
			}
			grants = append(grants, sched.Grant{Request: ri, Uploader: id})
		}
	}
	return grants, nil
}
