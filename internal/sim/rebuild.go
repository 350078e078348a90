package sim

import (
	"fmt"
	"sort"

	"repro/internal/cdn"
	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

// This file is the from-scratch reference pipeline: the slot loop exactly as
// it ran before the zero-rebuild refactor — every round allocates a fresh
// instance through NewInstance, grants group through per-slot maps, and
// schedulers only ever see Schedule (never a delta). It exists for two
// reasons: the per-scenario equivalence goldens pin that the incremental
// pipeline (world.go) produces byte-identical instances, schedules and
// metrics (TestIncrementalInstanceEqualsRebuilt, TestRunEqualsRunRebuild),
// and the BenchmarkPipeline* family measures the rebuild tax the
// incremental path removes. It is reference code — change it only to keep
// it semantically in lock-step with the incremental pipeline.

// RunRebuild executes Run's slot loop through the from-scratch reference
// pipeline: identical results to Run, paying the full per-round rebuild tax
// the incremental pipeline avoids. Exported for the equivalence goldens and
// the pipeline benchmarks; simulations should use Run.
func RunRebuild(cfg Config, scheduler sched.Scheduler) (*Results, error) {
	if scheduler == nil {
		return nil, fmt.Errorf("sim: nil scheduler")
	}
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	if ia, ok := scheduler.(ISPAware); ok {
		ia.SetISPLookup(w.ispOf)
	}
	res := &Results{Strategy: scheduler.Name()}
	res.nameSeries(scheduler.Name())

	for slot := 0; slot < cfg.Slots; slot++ {
		w.slot = slot
		if err := stepSlotRebuild(w, scheduler, res); err != nil {
			return nil, fmt.Errorf("sim: slot %d: %w", slot, err)
		}
	}
	res.finalizeFrom(w)
	return res, nil
}

// stepSlotRebuild is stepSlot's reference twin: fresh instance and fresh
// delivery maps every round, no deltas.
func stepSlotRebuild(w *world, scheduler sched.Scheduler, res *Results) error {
	w.refreshNeighbors()
	var out slotOutcome
	delivered := make(map[isp.PeerID]map[video.ChunkIndex]float64)
	for j := 0; j < w.cfg.BidRoundsPerSlot; j++ {
		in, err := w.buildInstanceRebuild(j)
		if err != nil {
			return err
		}
		sr, err := scheduler.Schedule(in)
		if err != nil {
			return err
		}
		if err := w.applyGrantsRebuild(j, in, sr.Grants, &out, delivered); err != nil {
			return err
		}
		out.addPayments(sr.Grants, sr.Prices)
		if v, ok := sr.Stats["shards"]; ok {
			out.shards = v // last bidding round's partition stands for the slot
		}
	}
	w.playbackRebuild(delivered, &out)
	if err := recordSlot(w, res, &out); err != nil {
		return err
	}
	return finishSlot(w, &out)
}

// windowOfRebuild is windowOf without the scratch buffer: a fresh window
// slice per call.
func (w *world) windowOfRebuild(p *peerRuntime, j int) []video.ChunkIndex {
	if p.seed {
		return nil
	}
	if p.started(w.slot) {
		front := p.pos + int(w.tauOf(j)*w.catalog.ChunksPerSecond())
		return p.cache.Window(video.ChunkIndex(front), w.cfg.WindowChunks)
	}
	// Pre-playback: fill the initial window.
	return p.cache.MissingIn(0, video.ChunkIndex(w.cfg.WindowChunks))
}

// buildInstanceRebuild assembles round j's scheduling problem from scratch:
// fresh request/uploader slices, fresh candidate slices, and a fresh
// uploader index inside NewInstance — the allocation profile the
// incremental builder eliminates.
func (w *world) buildInstanceRebuild(j int) (*sched.Instance, error) {
	rounds := w.cfg.BidRoundsPerSlot
	uploaders := make([]sched.Uploader, 0, len(w.order))
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		uploaders = append(uploaders, sched.Uploader{
			Peer:     id,
			Capacity: roundCapacity(w.peers[id].capacity, j, rounds),
		})
	}
	var requests []sched.Request
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		p := w.peers[id]
		for _, idx := range w.windowOfRebuild(p, j) {
			d := w.deadline(p, idx, j)
			if d < 0 {
				continue // unplayable; do not waste bandwidth
			}
			chunk := video.ChunkID{Video: p.vid, Index: idx}
			var cands []sched.Candidate
			if !w.cfg.CDN.Only {
				for _, nb := range p.neighbors {
					up := w.peers[nb]
					if up == nil || up.vid != p.vid || !up.cache.Has(idx) || up.capacity == 0 {
						continue
					}
					if w.behave != nil && !w.behave.AllowEdge(nb, up.ispID, up.seed, id, p.ispID) {
						continue
					}
					cands = append(cands, sched.Candidate{
						Peer: nb,
						Cost: w.cfg.CostScale * w.topo.MustCost(nb, id),
					})
				}
			}
			// The CDN fallback path: ISP-local edge, then origin (must stay
			// in lock-step with buildInstance).
			if w.cfg.CDN.Enabled {
				if w.cdnEdge != nil {
					cands = append(cands, sched.Candidate{
						Peer: w.cdnEdge[p.ispID], Cost: w.cfg.CDN.EdgeEgressCost,
					})
				}
				cands = append(cands, sched.Candidate{
					Peer: w.cdnOrigin, Cost: w.cfg.CDN.OriginEgressCost,
				})
			}
			if len(cands) == 0 {
				continue // nobody can serve it; miss accounting handles it
			}
			v := w.cfg.Valuation.Value(d)
			if w.behave != nil {
				v = w.behave.ReportedValue(id, v)
			}
			requests = append(requests, sched.Request{
				Peer:       id,
				Chunk:      chunk,
				Value:      v,
				Deadline:   d,
				Candidates: cands,
			})
		}
	}
	return sched.NewInstance(requests, uploaders)
}

// applyGrantsRebuild is applyGrants through the original per-slot maps:
// grants group into a map of per-uploader slices, deliveries into nested
// maps — one allocation per uploader and per receiving peer per slot.
func (w *world) applyGrantsRebuild(j int, in *sched.Instance, grants []sched.Grant,
	out *slotOutcome, delivered map[isp.PeerID]map[video.ChunkIndex]float64) error {
	if err := in.Validate(grants); err != nil {
		return fmt.Errorf("sim: scheduler produced invalid grants: %w", err)
	}
	// Group grants per uploader to serialize each uplink.
	byUploader := make(map[isp.PeerID][]sched.Grant)
	for _, g := range grants {
		byUploader[g.Uploader] = append(byUploader[g.Uploader], g)
	}
	uploaderIDs := make([]isp.PeerID, 0, len(byUploader))
	for u := range byUploader {
		uploaderIDs = append(uploaderIDs, u)
	}
	sort.Slice(uploaderIDs, func(a, b int) bool { return uploaderIDs[a] < uploaderIDs[b] })

	tau := w.tauOf(j)
	for _, u := range uploaderIDs {
		gs := byUploader[u]
		// Most urgent first on the uplink.
		sort.Slice(gs, func(a, b int) bool {
			da := in.Requests[gs[a].Request].Deadline
			db := in.Requests[gs[b].Request].Deadline
			if da != db {
				return da < db
			}
			return gs[a].Request < gs[b].Request
		})
		up := w.peers[u]
		if up == nil {
			return fmt.Errorf("sim: grant from unknown uploader %d", u)
		}
		// The uplink serves at B(u)/slot chunks per second throughout.
		perChunk := w.cfg.SlotSeconds / float64(up.capacity)
		for k, g := range gs {
			req := in.Requests[g.Request]
			at := tau + float64(k+1)*perChunk
			down := w.peers[req.Peer]
			if down == nil {
				continue // receiver departed mid-slot (possible under churn)
			}
			down.cache.Add(req.Chunk.Index)
			if delivered[req.Peer] == nil {
				delivered[req.Peer] = make(map[video.ChunkIndex]float64)
			}
			delivered[req.Peer][req.Chunk.Index] = at
			val := req.Value
			if w.behave != nil {
				if w.behave.MisreportsValue() {
					val = w.cfg.Valuation.Value(req.Deadline)
				}
				if up.tier == cdn.TierP2P {
					w.behave.RecordGrant(u, req.Peer)
				}
			}
			out.welfare += val - mustCost(in, g)
			out.grants++
			if up.tier != cdn.TierP2P {
				// CDN-served: tier counters and the edge cache, never the
				// ISP×ISP matrix (lock-step with applyGrants).
				if up.tier == cdn.TierEdge {
					out.servedEdge++
					if up.edgeLRU.Access(req.Chunk) {
						out.edgeHits++
					} else {
						out.edgeMisses++
						out.backhaul++
					}
				} else {
					out.servedOrigin++
				}
				continue
			}
			out.servedP2P++
			inter, err := w.topo.IsInter(u, req.Peer)
			if err != nil {
				return fmt.Errorf("sim: %w", err)
			}
			if inter {
				out.interISP++
			}
			if err := w.traffic.Add(up.ispID, down.ispID, 1); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
			if err := w.slotTraffic.Add(up.ispID, down.ispID, 1); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		}
	}
	return nil
}

// playbackRebuild is playback reading the per-slot delivery maps.
func (w *world) playbackRebuild(delivered map[isp.PeerID]map[video.ChunkIndex]float64,
	out *slotOutcome) {
	rate := w.catalog.ChunksPerSecond()
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		p := w.peers[id]
		if p.seed {
			continue
		}
		if p.started(w.slot) {
			toPlay := w.chunksPerSlot
			if remaining := w.catalog.Chunks() - p.pos; toPlay > remaining {
				toPlay = remaining
			}
			for i := 0; i < toPlay; i++ {
				idx := video.ChunkIndex(p.pos + i)
				deadlineAt := float64(i) / rate
				miss := !p.cache.Has(idx)
				if !miss {
					if at, ok := delivered[id][idx]; ok && at > deadlineAt {
						miss = true // arrived, but after its playback moment
					}
				}
				if miss {
					p.misses++
					out.missed++
					w.perISPMissed[p.ispID]++
				}
				p.played++
				out.played++
				w.perISPPlayed[p.ispID]++
			}
			p.pos += toPlay
			w.track.UpdatePosition(id, video.ChunkIndex(p.pos))
		}
		finished := p.pos >= w.catalog.Chunks()
		earlyOut := p.earlyLeaveSlot >= 0 && w.slot >= p.earlyLeaveSlot
		if finished || earlyOut {
			out.departures = append(out.departures, id)
		}
	}
}

func mustCost(in *sched.Instance, g sched.Grant) float64 {
	c, ok := in.Cost(g.Request, g.Uploader)
	if !ok {
		// Validate already guaranteed the edge exists.
		panic(fmt.Sprintf("sim: missing cost for grant %+v", g))
	}
	return c
}
