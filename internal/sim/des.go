package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/auction"
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

// DESOptions tunes the message-level engine.
type DESOptions struct {
	// TracePeer selects the peer whose λ_u is sampled for the Fig. 2 trace.
	// Negative = pick automatically: every node is traced and the most
	// contended one (highest peak λ, then most price changes) is reported —
	// the paper plots "a representative peer", i.e. one that actually sees
	// bidding competition.
	TracePeer isp.PeerID
	// DropRate injects message loss: each protocol message is independently
	// lost with this probability. The protocol has no retransmission (the
	// paper's bidders re-bid only on explicit rejection), so lost bids mean
	// unresolved requests and lost win notices mean one-sided books — the
	// auctioneer's book is authoritative for transfers, exactly as the
	// uploading peer's allocator is in the paper. Used by the robust-loss
	// report.
	DropRate float64
}

// RunDES executes the message-level engine: the same world and slot pipeline
// as Run, but each bidding round actually plays the distributed auction
// protocol (bids, rejections, evictions, price broadcasts) over the
// discrete-event network, with per-message latency = CostLatencyUnit ×
// network cost. Only the auction strategy exists at message level — that is
// the protocol the paper defines.
func RunDES(cfg Config, opts DESOptions) (*Results, error) {
	if cfg.CDN.Enabled {
		// CDN servers are cross-swarm uploaders: their price broadcasts
		// would have to fan out to every watcher of every video, a protocol
		// path the message-level engine does not implement. The fast engine
		// (Run) carries the hybrid tier.
		return nil, fmt.Errorf("sim: the CDN tier is not plumbed through the DES engine; use Run")
	}
	if !cfg.Fault.IsZero() {
		// Crash-stop is applied at the slot boundary by the fast engine's
		// churn step; the event-driven engine has no equivalent hook yet.
		return nil, fmt.Errorf("sim: fault injection is not plumbed through the DES engine; use Run")
	}
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	netSched := netsim.NewScheduler()
	latency := func(from, to netsim.NodeID) time.Duration {
		return time.Duration(float64(cfg.CostLatencyUnit) *
			w.topo.MustCost(isp.PeerID(from), isp.PeerID(to)))
	}
	network, err := netsim.NewNetwork(netSched, latency, randx.New(cfg.Seed).Derive(99))
	if err != nil {
		return nil, err
	}
	network.SetDropRate(opts.DropRate)

	res := &Results{Strategy: "auction-des"}
	res.nameSeries("auction-des")

	traces := make(map[isp.PeerID]*metrics.Series)
	nodes := make(map[isp.PeerID]*peer.Node)
	for slot := 0; slot < cfg.Slots; slot++ {
		w.slot = slot
		if err := desSlot(w, netSched, network, nodes, opts, traces, res); err != nil {
			return nil, fmt.Errorf("sim: DES slot %d: %w", slot, err)
		}
	}
	horizon := float64(cfg.Slots) * cfg.SlotSeconds
	res.PriceTrace = pickTrace(traces, opts.TracePeer, horizon, cfg.SlotSeconds)
	res.finalizeFrom(w)
	return res, nil
}

// pickTrace selects the reported λ_u series — the requested peer's, or the
// most consistently contended node's — and expands it into a sample-and-hold
// step function so the sawtooth of Fig. 2 renders faithfully. "Consistently
// contended" means positive prices in the most distinct slots (the paper's
// representative peer shows a sawtooth every slot, not one warm-up burst),
// with ties broken by sample count then peak.
func pickTrace(traces map[isp.PeerID]*metrics.Series, want isp.PeerID,
	horizon, slotSeconds float64) *metrics.Series {
	step := slotSeconds / 20
	if want >= 0 {
		if s, ok := traces[want]; ok {
			return stepExpand(s, horizon, step)
		}
		return &metrics.Series{Name: "lambda"}
	}
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

// desSlot plays one slot: per bidding round, build the same instance as the
// fast engine, run the distributed auction to quiescence, then collect the
// winners from the auctioneers' books and feed the shared transfer/playback
// pipeline.
func desSlot(w *world, netSched *netsim.Scheduler, network *netsim.Network,
	nodes map[isp.PeerID]*peer.Node, opts DESOptions,
	traces map[isp.PeerID]*metrics.Series, res *Results) error {
	w.refreshNeighbors()
	if err := syncNodes(w, netSched, network, nodes, opts.TracePeer, traces); err != nil {
		return err
	}

	var out slotOutcome
	out.departures = w.departScratch[:0]
	for j := 0; j < w.cfg.BidRoundsPerSlot; j++ {
		in, _, err := w.buildInstance(j) // the protocol nodes diff nothing
		if err != nil {
			return err
		}
		grants, err := desRound(w, j, in, netSched, nodes)
		if err != nil {
			return err
		}
		if err := w.applyGrants(j, in, grants, &out); err != nil {
			return err
		}
		prices := make(map[isp.PeerID]float64, len(nodes))
		for id, node := range nodes {
			prices[id] = node.Price()
		}
		out.addPayments(grants, prices)
	}
	w.playback(&out)
	w.clearDelivered()
	if err := recordSlot(w, res, &out); err != nil {
		return err
	}
	err := finishSlot(w, &out)
	w.departScratch = out.departures[:0]
	return err
}

// syncNodes reconciles the node set with the world's population and pushes
// fresh neighbor lists.
func syncNodes(w *world, netSched *netsim.Scheduler, network *netsim.Network,
	nodes map[isp.PeerID]*peer.Node, tracePeer isp.PeerID,
	traces map[isp.PeerID]*metrics.Series) error {
	for id, node := range nodes {
		if w.peers[id] == nil {
			node.Shutdown()
			delete(nodes, id)
		}
	}
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		if _, ok := nodes[id]; ok {
			continue
		}
		node, err := peer.New(id, netSched, network, w.cfg.Epsilon)
		if err != nil {
			return err
		}
		if tracePeer < 0 || id == tracePeer {
			series := &metrics.Series{Name: "lambda"}
			traces[id] = series
			node.SetPriceHook(func(at time.Duration, price float64) {
				// Same-timestamp samples are fine; the series only requires
				// non-decreasing time, which event order guarantees.
				_ = series.Add(at.Seconds(), price)
			})
		}
		nodes[id] = node
	}
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		p := w.peers[id]
		if p.seed {
			// Seeds never bid, but they broadcast price updates to the
			// watchers they serve. Their neighbor set is every watcher on
			// their video (the tracker knows them all); cap at NeighborCount
			// times a generous factor to bound fan-out.
			nodes[id].SetNeighbors(watchersOf(w, p.vid, id))
			continue
		}
		nodes[id].SetNeighbors(p.neighbors)
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

// desRound runs one bidding round's distributed auction to quiescence and
// extracts the grants.
func desRound(w *world, j int, in *sched.Instance,
	netSched *netsim.Scheduler, nodes map[isp.PeerID]*peer.Node) ([]sched.Grant, error) {
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
	if netSched.Now() < roundStart {
		if err := netSched.RunUntil(roundStart, desEventGuard); err != nil {
			return nil, err
		}
	}
	// Open the round on every node: allocators reset with the round's
	// capacity share; bidders fire their initial bids.
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		node := nodes[id]
		capacity := roundCapacity(w.peers[id].capacity, j, w.cfg.BidRoundsPerSlot)
		if err := node.StartSlot(perPeer[id], capacity); err != nil {
			return nil, err
		}
	}
	// Let the auction play out to quiescence (the paper's convergence within
	// the slot; Fig. 2 shows it takes a few seconds of message exchange).
	if err := netSched.Drain(desEventGuard); err != nil {
		return nil, err
	}
	// Read the books.
	var grants []sched.Grant
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		for _, win := range nodes[id].Winners() {
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
