package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/behavior"
	"repro/internal/buffer"
	"repro/internal/cdn"
	"repro/internal/economics"
	"repro/internal/fault"
	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/sched"
	"repro/internal/tracker"
	"repro/internal/video"
)

// deliveredChunk is one in-slot delivery record: chunk idx arrived at `at`
// seconds from slot start. Per-peer append lists replace the old per-slot
// map-of-maps; playback reads each peer's list once (world.arrivals).
type deliveredChunk struct {
	idx video.ChunkIndex
	at  float64
}

// peerRuntime is the simulator's view of one node (watcher, seed, or CDN
// server).
type peerRuntime struct {
	id    isp.PeerID
	ispID isp.ID
	vid   video.ID
	seed  bool
	// tier marks CDN servers (zero = regular peer). CDN nodes carry
	// seed=true so playback, churn and the online count skip them; they
	// never join the tracker, so neighbor lists never contain them —
	// buildInstance appends them as candidates explicitly.
	tier cdn.Tier
	// edgeLRU is the edge server's chunk cache (nil for every other tier).
	edgeLRU *cdn.LRU
	// capacity is B(u): chunks uploadable per slot.
	capacity int
	cache    *buffer.Set
	// neighbors is the current neighbor list (refreshed every slot).
	neighbors []isp.PeerID
	// pos is the playback front: chunks [0, pos) have been played.
	pos int
	// startSlot is the slot at which playback begins (join slot + 1 for
	// dynamic arrivals: the first slot is startup buffering).
	startSlot int
	// earlyLeaveSlot is the churn departure slot (-1 = stays to the end).
	earlyLeaveSlot int
	// misses/played accumulate lifetime playback accounting.
	misses, played int64
	// delivered collects this slot's deliveries (reset every slot; peers
	// with entries are tracked in world.deliveredPeers).
	delivered []deliveredChunk
	// orderIdx is the peer's position in world.order.
	orderIdx int32
	// row is the peer's uploader row in the instance being built, set by
	// buildInstance's uploader pass before any candidate names it.
	row int32
	// costOff locates the peer's neighbor costs in world.nbCost:
	// nbCost[costOff+k] is the scaled cost of the transfer neighbors[k]→p,
	// NaN until a candidate scan first needs it. Reassigned every refresh.
	costOff int32
}

// started reports whether playback is running at the given slot.
func (p *peerRuntime) started(slot int) bool {
	return !p.seed && slot >= p.startSlot
}

// roundMemo is one valMemo entry: the valuation v computed in build round
// round.
type roundMemo struct {
	round uint64
	v     float64
}

// costMark is one world.nbMark entry: the cost a watcher's previous
// neighbor list held for a peer, valid when stamp is the refresh's.
type costMark struct {
	stamp uint64
	cost  float64
}

// noPeer is the tombstone marker in world.order (peer ids are non-negative).
const noPeer = isp.PeerID(-1)

// world owns all mutable simulation state.
type world struct {
	cfg     Config
	topo    *isp.Topology
	catalog *video.Catalog
	track   *tracker.Tracker

	// peers is the dense peer table, indexed by PeerID (AddPeer mints ids
	// monotonically from 0); departed peers are nil.
	peers []*peerRuntime
	// order is the deterministic iteration order: ascending peer ids, with
	// departures tombstoned as noPeer instead of slice-deleted — O(1)
	// removal via peerRuntime.orderIdx, relative order untouched,
	// compacted when tombstones dominate.
	order      []isp.PeerID
	tombstones int

	rngChurn *randx.Source
	rngPeer  *randx.Source
	// rngLocality drives the neighbor policy's bias draws (ISP-biased
	// selection); uniform and capped policies never consume it.
	rngLocality *randx.Source

	slot          int
	chunksPerSlot int
	nextISP       int // round-robin ISP assignment

	joined, departed int64

	// traffic is the run-level ISP×ISP chunk-transfer ledger (diagonal =
	// intra-ISP); slotTraffic is the current slot's ledger, snapshotted into
	// Results.SlotTraffic and reset at each slot boundary. Both are fed one
	// grant at a time by applyGrants, so every scheduler records
	// identically.
	traffic     *economics.Matrix
	slotTraffic *economics.Matrix
	// perISPMissed/perISPPlayed accumulate playback accounting by the
	// watcher's ISP, for fairness analysis.
	perISPMissed, perISPPlayed []int64

	// Incremental instance machinery (the zero-rebuild pipeline; the
	// from-scratch reference lives in rebuild.go):
	//
	// builder maintains the persistent slot instance; winBuf is the reused
	// per-peer window scratch; dirty[v][idx] stamps the build round a chunk
	// was last delivered in, so unchanged candidate lists are carried
	// instead of re-scanned (a delivery can add the receiving peer as a
	// candidate for other watchers of that chunk — nothing else moves
	// within a slot); forceRebuild disables carrying for the first round
	// after a neighbor refresh or any population change.
	builder      *sched.Builder
	winBuf       []video.ChunkIndex
	dirty        [][]uint64
	buildRound   uint64
	forceRebuild bool
	// nbCost is the slab of every watcher's neighbor costs (see
	// peerRuntime.costOff), re-laid out on each neighbor refresh;
	// nbCostSpare is the previous layout the refresh carries costs from,
	// through nbOld (one watcher's previous neighbors) and nbMark (indexed
	// by PeerID: the previous cost of a neighbor marked with nbStamp).
	nbCost      []float64
	nbCostSpare []float64
	nbOld       []isp.PeerID
	nbMark      []costMark
	nbStamp     uint64
	// valMemo[off] is the build round's valuation of a started peer's chunk
	// off chunks past its playback front (see roundValue), one entry per
	// chunk of a video; an entry stamped with an earlier round is stale.
	valMemo []roundMemo

	// Transfer/playback scratch (reused across slots): the round's grants
	// resolved against their instance (grantEdges and grantRefs, in grant
	// order; grantSeen is Resolve's flags), then in serve order (grantOrder),
	// with the per-row grant counts and the PeerID order of the rows that
	// bucket them; the peers holding delivery records this slot, the
	// departure list, and one peer's delivery times by played offset
	// (arrivals; one entry per chunk a slot plays).
	grantEdges     []sched.GrantEdge
	grantRefs      []grantRef
	grantOrder     []grantRef
	grantSeen      []bool
	rowNext        []int32
	rowOrder       []int32
	deliveredPeers []isp.PeerID
	departScratch  []isp.PeerID
	arrivedAt      []float64

	// behave is the compiled strategic-behavior runtime (nil when
	// cfg.Behavior is the honest zero value, which keeps every hook off the
	// hot path and the honest run bit-identical); behaveWatchers is the
	// reused live-watcher scratch its per-slot refresh reads.
	behave         *behavior.Runtime
	behaveWatchers []isp.PeerID

	// CDN tier state (cfg.CDN.Enabled only): the origin server's peer id
	// (noPeer when disabled) and one edge server per ISP (nil slice when
	// EdgeChunksPerSlot is 0). CDN nodes live in peers/order like everyone
	// else; these indices are how buildInstance finds the watcher's edge.
	cdnOrigin isp.PeerID
	cdnEdge   []isp.PeerID

	// faults is the compiled fault injector (nil when cfg.Fault is the
	// all-off zero value, which keeps every crash hook off the hot path and
	// the clean run bit-identical); rejoinAt queues crashed-watcher respawns
	// by slot, and crashScratch is the per-slot crash list scratch.
	faults       *fault.Injector
	rejoinAt     map[int]int
	crashScratch []isp.PeerID
	crashes      int64
	rejoins      int64
}

// newWorld builds the initial population (seeds + static peers if any).
func newWorld(cfg Config) (*world, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	catalog, err := video.NewCatalog(cfg.Catalog)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	root := randx.New(cfg.Seed)
	topo, err := isp.NewTopology(cfg.NumISPs, cfg.Cost, root.Derive(1).Uint64())
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w := &world{
		cfg:           cfg,
		topo:          topo,
		catalog:       catalog,
		track:         tracker.New(),
		rngChurn:      root.Derive(2),
		rngPeer:       root.Derive(3),
		rngLocality:   root.Derive(4),
		chunksPerSlot: cfg.chunksPerSlot(catalog),
		builder:       sched.NewBuilder(),
		forceRebuild:  true,
		valMemo:       make([]roundMemo, catalog.Chunks()),
		cdnOrigin:     noPeer,
	}
	if w.chunksPerSlot <= 0 {
		return nil, fmt.Errorf("sim: slot shorter than one chunk playback")
	}
	w.arrivedAt = make([]float64, w.chunksPerSlot)
	if !cfg.Behavior.IsZero() {
		// The behavior stream derives from its own root key (5): keyed
		// derivation is independent per label, so topology/churn/peer/
		// locality draws are untouched and the honest world at the same
		// seed stays the perfect control for degradation reports.
		w.behave, err = behavior.New(cfg.Behavior, cfg.NumISPs, root.Derive(5).Uint64())
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if !cfg.Fault.IsZero() {
		// Like behavior, the fault streams derive from their own root key
		// (6): crash/rejoin draws never touch topology/churn/peer/locality
		// randomness, so the clean world at the same seed is the exact
		// control for a fault sweep.
		w.faults, err = fault.NewInjector(cfg.Fault, root.Derive(6).Uint64())
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		w.rejoinAt = make(map[int]int)
	}
	w.dirty = make([][]uint64, catalog.Count())
	if w.traffic, err = economics.NewMatrix(cfg.NumISPs); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if w.slotTraffic, err = economics.NewMatrix(cfg.NumISPs); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w.perISPMissed = make([]int64, cfg.NumISPs)
	w.perISPPlayed = make([]int64, cfg.NumISPs)
	if err := w.placeSeeds(); err != nil {
		return nil, err
	}
	if err := w.placeCDN(); err != nil {
		return nil, err
	}
	if cfg.Scenario == ScenarioStatic {
		for i := 0; i < cfg.StaticPeers; i++ {
			if err := w.spawnStaticPeer(); err != nil {
				return nil, err
			}
		}
	}
	w.refreshNeighbors()
	return w, nil
}

// placeSeeds creates the seed population per the configured placement.
func (w *world) placeSeeds() error {
	seedCap := int(w.cfg.SeedUploadX * w.catalog.ChunksPerSecond() * w.cfg.SlotSeconds)
	for v := 0; v < w.catalog.Count(); v++ {
		switch w.cfg.Placement {
		case SeedsPerISP:
			for m := 0; m < w.cfg.NumISPs; m++ {
				for k := 0; k < w.cfg.SeedsPerVideo; k++ {
					if err := w.addSeed(video.ID(v), isp.ID(m), seedCap); err != nil {
						return err
					}
				}
			}
		case SeedsGlobal:
			for k := 0; k < w.cfg.SeedsPerVideo; k++ {
				m := isp.ID((v*w.cfg.SeedsPerVideo + k) % w.cfg.NumISPs)
				if err := w.addSeed(video.ID(v), m, seedCap); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// placeCDN stands up the CDN tier: the origin first (one node, lowest id),
// then one edge per ISP in ISP order — a fixed, deterministic prefix of the
// id space right after the seeds. CDN nodes are permanent (never depart),
// invisible to the tracker (buildInstance appends them as candidates
// explicitly), and skipped by playback/churn via the seed flag. The vid -1
// sentinel can never match a watcher's video, so even a stray neighbor-list
// hit could not treat them as swarm peers.
func (w *world) placeCDN() error {
	s := w.cfg.CDN
	if !s.Enabled {
		return nil
	}
	addServer := func(m isp.ID, capacity int, tier cdn.Tier, lru *cdn.LRU) (isp.PeerID, error) {
		id, err := w.topo.AddPeer(m)
		if err != nil {
			return noPeer, fmt.Errorf("sim: cdn: %w", err)
		}
		w.addPeer(&peerRuntime{
			id: id, ispID: m, vid: -1, seed: true, tier: tier,
			capacity: capacity, earlyLeaveSlot: -1, edgeLRU: lru,
		})
		return id, nil
	}
	var err error
	if w.cdnOrigin, err = addServer(0, s.OriginChunksPerSlot, cdn.TierOrigin, nil); err != nil {
		return err
	}
	if s.EdgeChunksPerSlot > 0 {
		w.cdnEdge = make([]isp.PeerID, w.cfg.NumISPs)
		for m := 0; m < w.cfg.NumISPs; m++ {
			lru, err := cdn.NewLRU(s.EdgeCacheChunks)
			if err != nil {
				return fmt.Errorf("sim: cdn: %w", err)
			}
			if w.cdnEdge[m], err = addServer(isp.ID(m), s.EdgeChunksPerSlot, cdn.TierEdge, lru); err != nil {
				return err
			}
		}
	}
	return nil
}

// addPeer registers a freshly minted peer in the peer table and at the end
// of the iteration order (AddPeer ids are monotone, so the order stays
// ascending).
func (w *world) addPeer(p *peerRuntime) {
	for int(p.id) >= len(w.peers) {
		w.peers = append(w.peers, nil)
	}
	w.peers[p.id] = p
	p.orderIdx = int32(len(w.order))
	w.order = append(w.order, p.id)
}

func (w *world) addSeed(v video.ID, m isp.ID, capacity int) error {
	id, err := w.topo.AddPeer(m)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	cache, err := buffer.NewFullSet(w.catalog.Chunks())
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	p := &peerRuntime{
		id: id, ispID: m, vid: v, seed: true,
		capacity: capacity, cache: cache, earlyLeaveSlot: -1,
	}
	w.addPeer(p)
	w.joined++
	if err := w.track.Join(tracker.Entry{Peer: id, Video: v, Seed: true}); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// drawCapacity samples a watcher's upload capacity: uniform
// [UploadMinX, UploadMaxX] × streaming rate, in chunks per slot.
func (w *world) drawCapacity() int {
	x := w.rngPeer.Range(w.cfg.UploadMinX, w.cfg.UploadMaxX)
	c := int(x * w.catalog.ChunksPerSecond() * w.cfg.SlotSeconds)
	if c < 1 {
		c = 1
	}
	return c
}

// nextISPRoundRobin spreads joiners evenly over ISPs (paper: "distributed in
// the 5 ISPs evenly").
func (w *world) nextISPRoundRobin() isp.ID {
	m := isp.ID(w.nextISP % w.cfg.NumISPs)
	w.nextISP++
	return m
}

// spawnStaticPeer creates a watcher at a uniformly random playback position
// with history [0, pos) already cached — a steady-state snapshot member.
func (w *world) spawnStaticPeer() error {
	vid := w.catalog.Pick(w.rngPeer)
	pos := w.rngPeer.Intn(w.catalog.Chunks())
	return w.addWatcher(vid, w.nextISPRoundRobin(), pos, w.slot, -1)
}

// spawnDynamicPeer creates a fresh arrival that starts playback next slot and
// may be destined to leave early.
func (w *world) spawnDynamicPeer() error {
	vid := w.catalog.Pick(w.rngChurn)
	startSlot := w.slot + 1
	earlyLeave := -1
	if w.cfg.EarlyLeaveProb > 0 && w.rngChurn.Bool(w.cfg.EarlyLeaveProb) {
		watchSlots := (w.catalog.Chunks() + w.chunksPerSlot - 1) / w.chunksPerSlot
		if watchSlots > 1 {
			earlyLeave = startSlot + w.rngChurn.Intn(watchSlots-1)
		}
	}
	return w.addWatcher(vid, w.nextISPRoundRobin(), 0, startSlot, earlyLeave)
}

func (w *world) addWatcher(vid video.ID, m isp.ID, pos, startSlot, earlyLeaveSlot int) error {
	id, err := w.topo.AddPeer(m)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	cache, err := buffer.NewSet(w.catalog.Chunks())
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if pos > 0 {
		cache.AddRange(0, video.ChunkIndex(pos))
	}
	p := &peerRuntime{
		id: id, ispID: m, vid: vid,
		capacity: w.drawCapacity(), cache: cache,
		pos: pos, startSlot: startSlot, earlyLeaveSlot: earlyLeaveSlot,
	}
	if w.behave != nil {
		// Free-riders are clamped after the draw so every other stream
		// (and every other peer's capacity) matches the honest run.
		p.capacity = w.behave.ClampCapacity(id, p.capacity)
	}
	w.addPeer(p)
	w.joined++
	if err := w.track.Join(tracker.Entry{Peer: id, Video: vid, Position: video.ChunkIndex(pos)}); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// removePeer deletes a departed watcher: O(1) via its order index, leaving
// an order-preserving tombstone (quadratic slice deletes under heavy churn
// were the old cost). The order compacts once tombstones outnumber live
// entries; compaction preserves relative order, so iteration — and with it
// every downstream instance and schedule — is identical to the slice-delete
// scheme (pinned by TestRemovalSchemeGolden).
func (w *world) removePeer(id isp.PeerID) {
	p := w.peers[id]
	if p == nil {
		return
	}
	i := p.orderIdx
	w.peers[id] = nil
	w.track.Leave(id)
	if w.behave != nil {
		w.behave.Forget(id)
	}
	w.order[i] = noPeer
	w.tombstones++
	w.departed++
	if w.tombstones*2 > len(w.order) {
		w.compactOrder()
	}
}

// applyCrashFaults draws crash-stop decisions for this slot's live watchers
// and replays any queued rejoins. A crashed watcher departs immediately —
// without the static-world respawn, so crash-stop shrinks even a static
// population — and, when RejoinAfterSlots > 0, a replacement is queued to
// arrive that many slots later. All draws ride the injector's own derived
// streams, so the clean run at the same seed stays bit-identical.
func (w *world) applyCrashFaults() error {
	if w.faults == nil {
		return nil
	}
	// Collect first, remove after: removePeer may compact w.order mid-walk.
	crashed := w.crashScratch[:0]
	for _, id := range w.order {
		if id == noPeer || w.peers[id].seed {
			continue
		}
		if w.faults.CrashPeer() {
			crashed = append(crashed, id)
		}
	}
	for _, id := range crashed {
		w.removePeer(id)
	}
	w.crashes += int64(len(crashed))
	if after := w.faults.Spec().RejoinAfterSlots; after > 0 && len(crashed) > 0 {
		w.rejoinAt[w.slot+after] += len(crashed)
	}
	w.crashScratch = crashed[:0]
	if n := w.rejoinAt[w.slot]; n > 0 {
		delete(w.rejoinAt, w.slot)
		for i := 0; i < n; i++ {
			if err := w.spawnRejoinPeer(); err != nil {
				return err
			}
		}
		w.rejoins += int64(n)
	}
	return nil
}

// spawnRejoinPeer respawns a crashed watcher as a fresh arrival: new
// identity, new video draw from the fault rejoin stream, playback from the
// start next slot. A reboot, not a resume — mid-download state died with the
// crash.
func (w *world) spawnRejoinPeer() error {
	vid := w.catalog.Pick(w.faults.RejoinRand())
	return w.addWatcher(vid, w.nextISPRoundRobin(), 0, w.slot+1, -1)
}

// compactOrder squeezes the tombstones out of the iteration order.
func (w *world) compactOrder() {
	kept := w.order[:0]
	for _, id := range w.order {
		if id != noPeer {
			w.peers[id].orderIdx = int32(len(kept))
			kept = append(kept, id)
		}
	}
	w.order = kept
	w.tombstones = 0
}

// online returns the number of online watchers (seeds excluded).
func (w *world) online() int {
	n := 0
	for _, id := range w.order {
		if id != noPeer && !w.peers[id].seed {
			n++
		}
	}
	return n
}

// refreshNeighbors re-bootstraps every watcher's neighbor list from the
// tracker (the paper's neighbor manager, run each bidding cycle), shaped by
// the configured locality policy. The uniform policy takes the classic
// Neighbors path (and consumes no randomness), keeping ISP-blind runs
// byte-identical to the pre-locality engine. Fresh neighbor lists invalidate
// every carried candidate list, so the next instance build re-scans. The
// cost slab is re-laid out for the fresh lists: a neighbor the watcher
// already had keeps the cost its old list held (a cost is a pure function
// of the pair, so the carried value is the one a fresh draw would give),
// and every other neighbor starts NaN.
func (w *world) refreshNeighbors() {
	pol := w.cfg.Locality
	prevCost := w.nbCost
	w.nbCost = w.nbCostSpare[:0]
	if n := len(w.peers); len(w.nbMark) < n {
		w.nbMark = append(w.nbMark, make([]costMark, n-len(w.nbMark))...)
	}
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		p := w.peers[id]
		if p.seed {
			continue
		}
		// The uniform policy recycles p.neighbors' array, so keep the old
		// list aside first.
		w.nbOld = append(w.nbOld[:0], p.neighbors...)
		oldCost := prevCost[p.costOff : int(p.costOff)+len(w.nbOld)]
		var neighbors []isp.PeerID
		var err error
		if pol.Kind == tracker.PolicyUniform {
			// Recycle the peer's previous list (consumers copy what they
			// keep: candidate scans read in place, DES nodes copy).
			neighbors, err = w.track.AppendNeighbors(p.neighbors[:0], id, w.cfg.NeighborCount)
		} else {
			neighbors, err = w.track.NeighborsLocal(id, w.cfg.NeighborCount, pol, w.ispOf, w.rngLocality)
		}
		if err == nil { // on error: freshly departed; next slot heals
			p.neighbors = neighbors
		}
		w.nbStamp++
		for k, nb := range w.nbOld {
			w.nbMark[nb] = costMark{stamp: w.nbStamp, cost: oldCost[k]}
		}
		p.costOff = int32(len(w.nbCost))
		for _, nb := range p.neighbors {
			c := math.NaN()
			if m := w.nbMark[nb]; m.stamp == w.nbStamp {
				c = m.cost
			}
			w.nbCost = append(w.nbCost, c)
		}
	}
	w.nbCostSpare = prevCost
	if w.behave != nil {
		// Strategic state is per-slot: clique membership follows the live
		// population and tit-for-tat unchoke sets are cut from the ledger
		// after the fresh neighbor lists exist (the optimistic unchoke
		// rotates over them).
		w.behaveWatchers = w.behaveWatchers[:0]
		for _, id := range w.order {
			if id == noPeer || w.peers[id].seed {
				continue
			}
			w.behaveWatchers = append(w.behaveWatchers, id)
		}
		w.behave.BeginSlot(w.slot, w.behaveWatchers, func(p isp.PeerID) []isp.PeerID {
			return w.peers[p].neighbors
		})
	}
	w.forceRebuild = true
}

// ispOf adapts the topology to the ISP-lookup signature ISPAware
// schedulers and wrappers take.
func (w *world) ispOf(p isp.PeerID) (isp.ID, bool) {
	id, err := w.topo.Of(p)
	return id, err == nil
}

// tauOf returns the in-slot time offset (seconds) of bidding round j.
func (w *world) tauOf(j int) float64 {
	return w.cfg.SlotSeconds * float64(j) / float64(w.cfg.BidRoundsPerSlot)
}

// roundCapacity splits B(u) over the slot's bidding rounds pro rata — an
// uplink of rate B/slot can physically push only ≈B/R chunks per sub-round,
// whichever round allocated them.
func roundCapacity(capacity, round, rounds int) int {
	return capacity*(round+1)/rounds - capacity*round/rounds
}

// deadline returns the playback deadline of chunk idx for peer p, in seconds
// from bidding round j of the current slot (the moment bids are valued).
func (w *world) deadline(p *peerRuntime, idx video.ChunkIndex, j int) float64 {
	rate := w.catalog.ChunksPerSecond()
	tau := w.tauOf(j)
	if p.started(w.slot) {
		return float64(int(idx)-p.pos)/rate - tau
	}
	// Playback starts at startSlot; chunk i plays i/rate after that.
	lead := float64(p.startSlot-w.slot) * w.cfg.SlotSeconds
	return lead + float64(idx)/rate - tau
}

// windowOf fills the reused window scratch with the window of interest
// R_t(d) for watcher p at bidding round j: the next WindowChunks missing
// chunks ahead of the playback front, which slides within the slot as
// rounds progress — the paper's peers bid continuously, re-valuing chunks
// as deadlines tighten. The returned slice is valid until the next call.
func (w *world) windowOf(p *peerRuntime, j int) []video.ChunkIndex {
	if p.seed {
		return nil
	}
	w.winBuf = w.winBuf[:0]
	if p.started(w.slot) {
		front := p.pos + int(w.tauOf(j)*w.catalog.ChunksPerSecond())
		w.winBuf = p.cache.AppendWindow(w.winBuf, video.ChunkIndex(front), w.cfg.WindowChunks)
	} else {
		// Pre-playback: fill the initial window.
		w.winBuf = p.cache.AppendMissingIn(w.winBuf, 0, video.ChunkIndex(w.cfg.WindowChunks))
	}
	return w.winBuf
}

// markDelivered stamps chunk idx of video v as delivered in the current
// build round: the receiving peer's cache grew, so candidate lists for that
// chunk must be re-scanned next round instead of carried.
func (w *world) markDelivered(v video.ID, idx video.ChunkIndex) {
	arr := w.dirty[v]
	if arr == nil {
		arr = make([]uint64, w.catalog.Chunks())
		w.dirty[v] = arr
	}
	arr[idx] = w.buildRound
}

// chunkClean reports whether no delivery of (v, idx) happened during the
// previous build round — the condition under which a carried request's
// candidate list is provably unchanged within the slot (neighbor lists and
// capacities are fixed between refreshes; only caches move).
func (w *world) chunkClean(v video.ID, idx video.ChunkIndex) bool {
	arr := w.dirty[v]
	return arr == nil || arr[idx]+1 != w.buildRound
}

// roundValue returns the valuation of deadline d, which a started peer's
// chunk off chunks past its playback front has in the current build round.
// That deadline is a function of off alone within a round, so the value is
// memoised per offset, computed by the same Valuation.Value call, and every
// watcher at the same offset shares one math.Log.
func (w *world) roundValue(off int, d float64) float64 {
	m := &w.valMemo[off]
	if m.round != w.buildRound {
		m.round, m.v = w.buildRound, w.cfg.Valuation.Value(d)
	}
	return m.v
}

// buildInstance assembles the scheduling problem of bidding round j through
// the persistent builder: every watcher's window requests with round-j
// valuations/deadlines, and every online node as an uploader with its
// round-j capacity share. In steady state nothing is reallocated: the
// builder reuses its arrays, and unchanged candidate lists are carried from
// the previous round (dirty-chunk tracking proves them unchanged). The
// instance content is byte-identical to the from-scratch reference build
// (rebuild.go; pinned per scenario by TestIncrementalInstanceEqualsRebuilt).
// The slot-to-slot delta is the builder's Delta, derived only for a caller
// that reads it.
func (w *world) buildInstance(j int) (*sched.Instance, error) {
	rounds := w.cfg.BidRoundsPerSlot
	w.buildRound++
	b := w.builder
	b.Begin()
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		up := w.peers[id]
		row, err := b.AddUploader(id, roundCapacity(up.capacity, j, rounds))
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		up.row = row
	}
	for _, id := range w.order {
		if id == noPeer {
			continue
		}
		p := w.peers[id]
		started := p.started(w.slot)
		for _, idx := range w.windowOf(p, j) {
			d := w.deadline(p, idx, j)
			if d < 0 {
				continue // unplayable; do not waste bandwidth
			}
			var v float64
			if started {
				v = w.roundValue(int(idx)-p.pos, d)
			} else {
				v = w.cfg.Valuation.Value(d)
			}
			if w.behave != nil {
				v = w.behave.ReportedValue(id, v)
			}
			b.StartRequest(id, video.ChunkID{Video: p.vid, Index: idx}, v, d)
			if !w.forceRebuild && w.chunkClean(p.vid, idx) && b.CarryCandidates() {
				b.EndRequest()
				continue
			}
			if !w.cfg.CDN.Only {
				costs := w.nbCost[p.costOff : int(p.costOff)+len(p.neighbors)]
				for k, nb := range p.neighbors {
					up := w.peers[nb]
					if up == nil || up.vid != p.vid || !up.cache.Has(idx) || up.capacity == 0 {
						continue
					}
					if w.behave != nil && !w.behave.AllowEdge(nb, up.ispID, up.seed, id, p.ispID) {
						continue
					}
					if math.IsNaN(costs[k]) {
						costs[k] = w.cfg.CostScale * w.topo.MustCost(nb, id)
					}
					b.AddCandidate(up.row, costs[k])
				}
			}
			// The CDN fallback path: the watcher's ISP-local edge, then the
			// origin. Costs are the constant egress fees — cache-state-
			// independent, so carried candidate lists stay sound.
			if w.cfg.CDN.Enabled {
				if w.cdnEdge != nil {
					b.AddCandidate(w.peers[w.cdnEdge[p.ispID]].row, w.cfg.CDN.EdgeEgressCost)
				}
				b.AddCandidate(w.peers[w.cdnOrigin].row, w.cfg.CDN.OriginEgressCost)
			}
			b.EndRequest()
		}
	}
	w.forceRebuild = false
	in, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return in, nil
}

// slotOutcome aggregates one slot's effects for the metrics.
type slotOutcome struct {
	welfare float64
	// payments is Σ λ_u over granted units: what winners would pay at the
	// auction's market-clearing prices (the paper models no money transfer,
	// but the dual prices are exactly the marginal value of bandwidth).
	payments float64
	grants   int
	interISP int
	missed   int64
	played   int64
	// shards is the slot's market partition size when the scheduler shards
	// (0 for monolithic strategies).
	shards     float64
	departures []isp.PeerID
	// Per-tier delivery counters (cfg.CDN.Enabled runs; servedP2P counts in
	// every run and equals grants when the tier is off). backhaul counts
	// origin→edge cache fills — one per edge miss.
	servedP2P, servedEdge, servedOrigin int64
	edgeHits, edgeMisses, backhaul      int64
}

// addPayments accumulates the λ-weighted payments of a round's grants.
func (out *slotOutcome) addPayments(grants []sched.Grant, prices map[isp.PeerID]float64) {
	if prices == nil {
		return
	}
	for _, g := range grants {
		out.payments += prices[g.Uploader]
	}
}

// grantRef is one grant resolved against its round's instance: the
// request's deadline and index, which order an uploader's run, the edge's
// network cost, and the uploader's row.
type grantRef struct {
	deadline float64
	cost     float64
	req      int32
	row      int32
}

// applyGrants turns bidding round j's grants into serialized chunk
// deliveries: caches update, the traffic ledger advances and per-peer
// absolute delivery times (seconds from slot start) accumulate into the
// peers' delivery lists for miss accounting. Grants are served grouped by
// uploader in (uploader, deadline, request) order (see orderGrants).
func (w *world) applyGrants(j int, in *sched.Instance, grants []sched.Grant, out *slotOutcome) error {
	refs, err := w.resolveGrants(in, grants)
	if err != nil {
		return fmt.Errorf("sim: scheduler produced invalid grants: %w", err)
	}
	return w.serveGrants(j, in, w.orderGrants(in, refs), out)
}

// resolveGrants checks the grants through sched.Instance.Resolve and
// resolves each into world scratch: the returned refs, in grant order, and
// the grant count of every uploader row (rowNext).
func (w *world) resolveGrants(in *sched.Instance, grants []sched.Grant) ([]grantRef, error) {
	nr, nu, ng := len(in.Requests), len(in.Uploaders), len(grants)
	w.grantSeen = slices.Grow(w.grantSeen[:0], nr)[:nr]
	w.rowNext = slices.Grow(w.rowNext[:0], nu)[:nu]
	w.grantEdges = slices.Grow(w.grantEdges[:0], ng)[:ng]
	clear(w.grantSeen)
	clear(w.rowNext)
	if err := in.Resolve(grants, w.grantSeen, w.rowNext, w.grantEdges); err != nil {
		return nil, err
	}
	refs := w.grantRefs[:0]
	for i, e := range w.grantEdges {
		ri := grants[i].Request
		refs = append(refs, grantRef{deadline: in.Requests[ri].Deadline, cost: e.Cost, req: int32(ri), row: e.Row})
	}
	w.grantRefs = refs
	return refs, nil
}

// orderGrants returns the resolved grants ordered by uploader PeerID, then
// deadline (most urgent first on the uplink), then request index. The row
// counts resolveGrants left in rowNext, visited in PeerID order, bucket the
// grants; only each uploader's own run is then sorted, on the keys the
// refs carry. All scratch lives on the world, so a round allocates nothing
// once the buffers have grown.
func (w *world) orderGrants(in *sched.Instance, refs []grantRef) []grantRef {
	nu := len(in.Uploaders)
	order := w.rowOrder[:0]
	for i := range nu {
		order = append(order, int32(i))
	}
	byPeer := func(a, b sched.Uploader) int { return cmp.Compare(a.Peer, b.Peer) }
	if !slices.IsSortedFunc(in.Uploaders, byPeer) {
		slices.SortFunc(order, func(a, b int32) int { return byPeer(in.Uploaders[a], in.Uploaders[b]) })
	}
	w.rowOrder = order
	// Turn per-row counts into each row's first slot, in PeerID order.
	next := w.rowNext
	var at int32
	for _, r := range order {
		at, next[r] = at+next[r], at
	}
	sorted := slices.Grow(w.grantOrder[:0], len(refs))[:len(refs)]
	for _, g := range refs {
		sorted[next[g.row]] = g
		next[g.row]++
	}
	for s := 0; s < len(sorted); {
		e := s + 1
		for e < len(sorted) && sorted[e].row == sorted[s].row {
			e++
		}
		if e-s > 1 {
			slices.SortFunc(sorted[s:e], func(a, b grantRef) int {
				if c := cmp.Compare(a.deadline, b.deadline); c != 0 {
					return c
				}
				return cmp.Compare(a.req, b.req)
			})
		}
		s = e
	}
	w.grantOrder = sorted
	return sorted
}

// serveGrants delivers the resolved grants in the order given, uploader by
// uploader: each uplink serves its run back to back at B(u)/slot chunks per
// second.
func (w *world) serveGrants(j int, in *sched.Instance, order []grantRef, out *slotOutcome) error {
	tau := w.tauOf(j)
	for s := 0; s < len(order); {
		row := order[s].row
		e := s
		for e < len(order) && order[e].row == row {
			e++
		}
		u := in.Uploaders[row].Peer
		up := w.peers[u]
		if up == nil {
			return fmt.Errorf("sim: grant from unknown uploader %d", u)
		}
		// The uplink serves at B(u)/slot chunks per second throughout.
		perChunk := w.cfg.SlotSeconds / float64(up.capacity)
		for k, g := range order[s:e] {
			req := &in.Requests[g.req]
			at := tau + float64(k+1)*perChunk
			down := w.peers[req.Peer]
			if down == nil {
				continue // receiver departed mid-slot (possible under churn)
			}
			down.cache.Add(req.Chunk.Index)
			w.markDelivered(req.Chunk.Video, req.Chunk.Index)
			if len(down.delivered) == 0 {
				w.deliveredPeers = append(w.deliveredPeers, req.Peer)
			}
			down.delivered = append(down.delivered, deliveredChunk{idx: req.Chunk.Index, at: at})
			val := req.Value
			if w.behave != nil {
				if w.behave.MisreportsValue() {
					// Social welfare is accounted at the TRUE valuation — a
					// pure function of the request's deadline — never the
					// shaded/boosted bid the auction saw.
					val = w.cfg.Valuation.Value(req.Deadline)
				}
				if up.tier == cdn.TierP2P {
					// CDN deliveries are not peer reciprocity: they never
					// feed the tit-for-tat ledger.
					w.behave.RecordGrant(u, req.Peer)
				}
			}
			out.welfare += val - g.cost
			out.grants++
			if up.tier != cdn.TierP2P {
				// CDN-served: charge the tier counters (and the edge cache),
				// never the ISP×ISP matrix — the CDN bill and the transit
				// bill must not double-count a byte.
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
			if up.ispID != down.ispID {
				out.interISP++
			}
			if err := w.traffic.Add(up.ispID, down.ispID, 1); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
			if err := w.slotTraffic.Add(up.ispID, down.ispID, 1); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		}
		s = e
	}
	return nil
}

// arrivals returns, for each of the toPlay chunks from p's playback front,
// the slot time its latest delivery record names, from one scan of p's
// deliveries: when a chunk was delivered twice, the later record decides
// its miss. A chunk not delivered this slot reads 0, which is late for no
// chunk (chunk i plays at i/rate ≥ 0). It returns nil when p received
// nothing; the slice is world scratch, valid until the next call.
func (w *world) arrivals(p *peerRuntime, toPlay int) []float64 {
	if len(p.delivered) == 0 {
		return nil
	}
	at := w.arrivedAt[:toPlay]
	clear(at)
	for _, dc := range p.delivered {
		if i := int(dc.idx) - p.pos; i >= 0 && i < toPlay {
			at[i] = dc.at
		}
	}
	return at
}

// clearDelivered resets the slot's delivery records (called once per slot
// after playback; only peers that actually received chunks are touched).
func (w *world) clearDelivered() {
	for _, id := range w.deliveredPeers {
		if p := w.peers[id]; p != nil {
			p.delivered = p.delivered[:0]
		}
	}
	w.deliveredPeers = w.deliveredPeers[:0]
}

// playback advances every watcher by one slot of playback, counting deadline
// misses, and collects departures (finished or early-leaving watchers).
func (w *world) playback(out *slotOutcome) {
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
			arrived := w.arrivals(p, toPlay)
			for i := 0; i < toPlay; i++ {
				idx := video.ChunkIndex(p.pos + i)
				deadlineAt := float64(i) / rate
				miss := !p.cache.Has(idx)
				if !miss && arrived != nil && arrived[i] > deadlineAt {
					miss = true // arrived, but after its playback moment
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
