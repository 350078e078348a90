package sim

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cdn"
	"repro/internal/economics"
	"repro/internal/isp"
	"repro/internal/sched"
	"repro/internal/video"
)

func TestRoundCapacityPartitionsExactly(t *testing.T) {
	// Σ_j roundCapacity(B, j, R) == B for every (B, R): no bandwidth lost or
	// invented by the sub-round metering.
	f := func(bRaw uint16, rRaw uint8) bool {
		capacity := int(bRaw)
		rounds := int(rRaw)%8 + 1
		total := 0
		for j := 0; j < rounds; j++ {
			part := roundCapacity(capacity, j, rounds)
			if part < 0 {
				return false
			}
			total += part
		}
		return total == capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRoundCapacityMonotoneInRound(t *testing.T) {
	// Parts differ by at most 1 (pro-rata fairness).
	for _, capacity := range []int{1, 3, 7, 100, 401} {
		for rounds := 1; rounds <= 6; rounds++ {
			min, max := capacity, 0
			for j := 0; j < rounds; j++ {
				p := roundCapacity(capacity, j, rounds)
				if p < min {
					min = p
				}
				if p > max {
					max = p
				}
			}
			if max-min > 1 {
				t.Fatalf("capacity %d over %d rounds: parts spread %d..%d",
					capacity, rounds, min, max)
			}
		}
	}
}

func TestWorldDeadlinesAndWindows(t *testing.T) {
	cfg := testConfig()
	w, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a started watcher mid-video.
	var p *peerRuntime
	for _, id := range w.order {
		cand := w.peers[id]
		if !cand.seed && cand.pos > 0 && cand.pos < w.catalog.Chunks()-cfg.WindowChunks {
			p = cand
			break
		}
	}
	if p == nil {
		t.Skip("no mid-video watcher in this seed")
	}
	// Round 0: the first window chunk is pos+1 with deadline 1/rate.
	win := w.windowOf(p, 0)
	if len(win) == 0 {
		t.Fatal("empty window for a mid-video watcher")
	}
	if win[0] != video.ChunkIndex(p.pos+1) {
		t.Fatalf("window starts at %d, want %d", win[0], p.pos+1)
	}
	rate := w.catalog.ChunksPerSecond()
	if d := w.deadline(p, win[0], 0); d <= 0 || d > 1/rate+1e-9 {
		t.Fatalf("first chunk deadline %v", d)
	}
	// Later rounds slide the window forward and tighten deadlines.
	lastRound := cfg.BidRoundsPerSlot - 1
	winLate := w.windowOf(p, lastRound)
	if len(winLate) > 0 && winLate[0] <= win[0] {
		t.Fatalf("window front did not slide: %d -> %d", win[0], winLate[0])
	}
	d0 := w.deadline(p, win[len(win)-1], 0)
	dLate := w.deadline(p, win[len(win)-1], lastRound)
	if dLate >= d0 {
		t.Fatalf("deadline should tighten across rounds: %v -> %v", d0, dLate)
	}
}

func TestWorldPlaybackConservation(t *testing.T) {
	// played == missed + hit for every slot; total played grows by exactly
	// chunksPerSlot per started watcher (absent video ends).
	cfg := testConfig()
	cfg.Slots = 4
	res, err := Run(cfg, &simpleCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMissed > res.TotalPlayed {
		t.Fatalf("missed %d > played %d", res.TotalMissed, res.TotalPlayed)
	}
	if res.TotalPlayed == 0 {
		t.Fatal("nothing played")
	}
}

// TestPlaybackLatestDeliveryDecidesMiss pins playback's reading of a chunk
// delivered twice in one slot: the later delivery record decides whether it
// arrived after its playback moment, late then early playing on time and
// early then late missing. A record of a chunk the slot does not play
// changes nothing. Every played chunk is cached, so only delivery times can
// miss.
func TestPlaybackLatestDeliveryDecidesMiss(t *testing.T) {
	cfg := testConfig()
	const played = 2 // the twice-delivered chunk's offset from the front
	for _, tc := range []struct {
		name          string
		first, second float64 // arrival times, in chunk playback periods
		miss          int64
	}{
		{"late then early", played + 1, played - 1, 0},
		{"early then late", played - 1, played + 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := newWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var p *peerRuntime
			for _, id := range w.order {
				cand := w.peers[id]
				if cand.started(w.slot) && cand.pos+w.chunksPerSlot < w.catalog.Chunks() {
					p = cand
					break
				}
			}
			if p == nil || w.chunksPerSlot <= played {
				t.Fatal("no watcher plays a full slot past the twice-delivered chunk")
			}
			p.cache.AddRange(video.ChunkIndex(p.pos), video.ChunkIndex(p.pos+w.chunksPerSlot+1))
			period := 1 / w.catalog.ChunksPerSecond()
			idx := video.ChunkIndex(p.pos + played)
			unplayed := video.ChunkIndex(p.pos + w.chunksPerSlot)
			p.delivered = append(p.delivered,
				deliveredChunk{idx: unplayed, at: 0},
				deliveredChunk{idx: idx, at: tc.first * period},
				deliveredChunk{idx: idx, at: tc.second * period},
				deliveredChunk{idx: unplayed, at: float64(w.chunksPerSlot+1) * period},
			)
			before := p.misses
			w.playback(&slotOutcome{})
			if got := p.misses - before; got != tc.miss {
				t.Fatalf("%d misses, want %d", got, tc.miss)
			}
		})
	}
}

// simpleCounter is a do-nothing scheduler: grants nothing, so every due chunk
// beyond the prefilled cache is a miss. Exercises the accounting path.
type simpleCounter struct{}

func (s *simpleCounter) Name() string { return "null" }
func (s *simpleCounter) Schedule(in *sched.Instance) (*sched.Result, error) {
	return &sched.Result{}, nil
}

func TestNullSchedulerMissesEverything(t *testing.T) {
	cfg := testConfig()
	cfg.Scenario = ScenarioDynamic // start empty: all windows unfilled
	cfg.Slots = 6
	res, err := Run(cfg, &simpleCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGrants != 0 {
		t.Fatal("null scheduler granted something")
	}
	if res.TotalPlayed > 0 && res.TotalMissed != res.TotalPlayed {
		t.Fatalf("with no transfers every played chunk is a miss: %d/%d",
			res.TotalMissed, res.TotalPlayed)
	}
}

func TestTrafficMatrixConsistency(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficMatrix.NumISPs() != cfg.NumISPs {
		t.Fatalf("matrix has %d rows", res.TrafficMatrix.NumISPs())
	}
	var total, diag int64
	for i, row := range res.TrafficMatrix.Rows() {
		for j, v := range row {
			if v < 0 {
				t.Fatalf("negative traffic [%d][%d]", i, j)
			}
			total += v
			if i == j {
				diag += v
			}
		}
	}
	if total != res.TotalGrants {
		t.Fatalf("matrix total %d != grants %d", total, res.TotalGrants)
	}
	if total-diag != res.TotalInterISP {
		t.Fatalf("off-diagonal %d != inter-ISP count %d", total-diag, res.TotalInterISP)
	}
}

// TestSlotTrafficRecombines pins the per-slot ledger contract: one matrix
// per slot, cross-ISP bytes series matching each slot's off-diagonal mass,
// and the merged slot ledgers equal to the run ledger exactly — the
// recombination invariant sharded evaluation relies on.
func TestSlotTrafficRecombines(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SlotTraffic) != cfg.Slots {
		t.Fatalf("%d slot matrices for %d slots", len(res.SlotTraffic), cfg.Slots)
	}
	merged, err := economics.NewMatrix(cfg.NumISPs)
	if err != nil {
		t.Fatal(err)
	}
	for si, m := range res.SlotTraffic {
		if err := merged.Merge(m); err != nil {
			t.Fatal(err)
		}
		wantBytes := float64(m.Inter()) * cfg.ChunkBytes()
		if got := res.CrossISPBytes.Points[si].V; got != wantBytes {
			t.Fatalf("slot %d cross-ISP bytes %v != matrix %v", si, got, wantBytes)
		}
	}
	if !merged.Equal(res.TrafficMatrix) {
		t.Fatalf("merged slot ledgers %v != run ledger %v",
			merged.Rows(), res.TrafficMatrix.Rows())
	}
	if res.TrafficMatrix.Inter() != res.TotalInterISP {
		t.Fatalf("matrix inter %d != counter %d", res.TrafficMatrix.Inter(), res.TotalInterISP)
	}
}

func TestPerISPMissRateAndFairness(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerISPMissRate) != cfg.NumISPs {
		t.Fatalf("per-ISP miss rates: %d entries", len(res.PerISPMissRate))
	}
	for i, m := range res.PerISPMissRate {
		if m < 0 || m > 1 {
			t.Fatalf("ISP %d miss rate %v out of range", i, m)
		}
	}
	fair := res.MissRateFairness()
	if fair <= 0 || fair > 1+1e-9 {
		t.Fatalf("Jain index %v out of (0,1]", fair)
	}
	// Empty results degenerate to perfect fairness.
	empty := &Results{}
	if empty.MissRateFairness() != 1 {
		t.Fatal("empty results should report fairness 1")
	}
}

// oracleGrantOrder is the grant order applyGrants served before it bucketed
// by uploader: one comparison sort on (uploader PeerID, deadline, request).
func oracleGrantOrder(in *sched.Instance, grants []sched.Grant) []int32 {
	idx := make([]int32, len(grants))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ga, gb := &grants[a], &grants[b]
		if ga.Uploader != gb.Uploader {
			return int(ga.Uploader - gb.Uploader)
		}
		da, db := in.Requests[ga.Request].Deadline, in.Requests[gb.Request].Deadline
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return ga.Request - gb.Request
	})
	return idx
}

// TestApplyGrantsMatchesSortOracle hand-builds a round whose uploader rows
// run in descending PeerID order — an edge server and three peers — with
// deadline ties on one uploader and the grants listed out of order. The
// bucketed grouping must serve them exactly as the comparison-sort oracle
// does: same order, rows and costs, delivery lists, traffic ledgers, edge
// cache and slotOutcome.
func TestApplyGrantsMatchesSortOracle(t *testing.T) {
	cfg := cdnTestConfig()
	got, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var ups []sched.Uploader
	var downs []isp.PeerID
	edge := noPeer
	for _, id := range got.order {
		p := got.peers[id]
		switch {
		case p.tier == cdn.TierEdge && edge == noPeer:
			edge = id
			ups = append(ups, sched.Uploader{Peer: id, Capacity: p.capacity})
		case p.tier == cdn.TierP2P && !p.seed && len(downs) < 6:
			downs = append(downs, id)
		case p.tier == cdn.TierP2P && len(downs) == 6 && len(ups) < 4 && p.capacity >= 4:
			ups = append(ups, sched.Uploader{Peer: id, Capacity: p.capacity})
		}
	}
	if len(ups) != 4 || len(downs) != 6 {
		t.Fatalf("world has %d usable uploaders and %d watchers, want 4 and 6", len(ups), len(downs))
	}
	slices.SortFunc(ups, func(a, b sched.Uploader) int { return int(b.Peer - a.Peer) })
	if slices.IsSortedFunc(ups, func(a, b sched.Uploader) int { return int(a.Peer - b.Peer) }) {
		t.Fatal("uploader rows must not be in PeerID order")
	}

	// Request k is watcher k%6's chunk k; plan[k] names its uploader row
	// and deadline. Row 1 gets four grants, two of them tied at deadline 1.
	plan := []struct {
		row      int
		deadline float64
	}{
		{1, 3}, {0, 2}, {1, 1}, {2, 4}, {3, 1}, {1, 1}, {0, 0.5}, {2, 4}, {1, 0.2}, {3, 5},
	}
	var reqs []sched.Request
	var grants []sched.Grant
	for k, pl := range plan {
		down := got.peers[downs[k%len(downs)]]
		var cands []sched.Candidate
		for ui, u := range ups {
			cands = append(cands, sched.Candidate{Peer: u.Peer, Cost: 0.01*float64(k+1) + 0.001*float64(ui)})
		}
		reqs = append(reqs, sched.Request{
			Peer:       down.id,
			Chunk:      video.ChunkID{Video: down.vid, Index: video.ChunkIndex(k)},
			Value:      2,
			Deadline:   pl.deadline,
			Candidates: cands,
		})
		grants = append(grants, sched.Grant{Request: k, Uploader: ups[pl.row].Peer})
	}
	slices.Reverse(grants)
	in, err := sched.NewInstance(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}

	var gotOut, refOut slotOutcome
	if err := got.applyGrants(1, in, grants, &gotOut); err != nil {
		t.Fatal(err)
	}
	// The oracle resolves every grant on its own: the row from the
	// instance's PeerID index, the cost from a scan of the candidates.
	var oracle []grantRef
	for _, i := range oracleGrantOrder(in, grants) {
		g := grants[i]
		r := in.Requests[g.Request]
		row, ok := in.UploaderIndex(g.Uploader)
		if !ok {
			t.Fatalf("grant %+v names no uploader", g)
		}
		k := slices.IndexFunc(r.Candidates, func(c sched.Candidate) bool { return c.Peer == g.Uploader })
		if k < 0 {
			t.Fatalf("grant %+v names no candidate", g)
		}
		oracle = append(oracle, grantRef{deadline: r.Deadline, cost: r.Candidates[k].Cost,
			req: int32(g.Request), row: int32(row)})
	}
	if !slices.Equal(got.grantOrder, oracle) {
		t.Fatalf("grants served as %+v, oracle %+v", got.grantOrder, oracle)
	}
	if err := ref.serveGrants(1, in, oracle, &refOut); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotOut, refOut) {
		t.Errorf("slotOutcome %+v, oracle %+v", gotOut, refOut)
	}
	if gotOut.servedEdge == 0 || gotOut.servedP2P == 0 {
		t.Errorf("round served %d edge and %d p2p grants; it must exercise both tiers",
			gotOut.servedEdge, gotOut.servedP2P)
	}
	if !reflect.DeepEqual(got.traffic, ref.traffic) || !reflect.DeepEqual(got.slotTraffic, ref.slotTraffic) {
		t.Error("traffic ledgers differ from the oracle's")
	}
	if !slices.Equal(got.deliveredPeers, ref.deliveredPeers) {
		t.Errorf("delivered peers %v, oracle %v", got.deliveredPeers, ref.deliveredPeers)
	}
	for _, id := range downs {
		if g, r := got.peers[id].delivered, ref.peers[id].delivered; !slices.Equal(g, r) {
			t.Errorf("peer %d deliveries %v, oracle %v", id, g, r)
		}
	}
	if g, r := got.peers[edge].edgeLRU.Keys(), ref.peers[edge].edgeLRU.Keys(); !slices.Equal(g, r) {
		t.Errorf("edge cache %v, oracle %v", g, r)
	}
}
