// Package behavior is the strategic-peer axis of the simulator: pluggable
// policies describing how peers (and ISPs) deviate from the truthful,
// altruistic participants the paper's auction assumes. The simulator's
// world consults a compiled Runtime at exactly two moments:
//
//   - bid-generation time (world.buildInstance and its from-scratch
//     reference twin): reported valuations are scaled (bid shading, clique
//     overbidding), candidate edges are filtered (clique members starving
//     outsiders, tit-for-tat choking, ISP cross-traffic throttling), and
//     free-riders have already had their upload capacity clamped at join;
//   - grant-application time (world.applyGrants): welfare is accounted at
//     the TRUE valuation — a pure function of the granted request's
//     deadline — never the misreported one, and the tit-for-tat
//     reciprocity ledger advances.
//
// Because both engines (the fast slot engine and the message-level DES)
// build instances and apply grants through the same world code, every
// policy perturbs the market identically under sharding and the
// incremental zero-rebuild pipeline. With the zero-value Spec no Runtime is
// created at all and the honest path is bit-identical to the pre-behavior
// engine (pinned by the no-op regression goldens).
//
// The degradation these policies cause — welfare lost, transit dollars
// shifted, per-ISP settlement deltas versus the honest run at the same
// seed — is measured by internal/economics.Degrade and recorded in the
// scenario layer's JSON export.
package behavior

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isp"
	"repro/internal/randx"
)

// Spec declares the strategic-behavior axis of a run. The zero value is
// the honest baseline: truthful bids, full upload capacity, no edge
// interference. Specs are plain JSON-friendly values carried on
// sim.Config.Behavior / scenario.Spec.Behavior; sweepable knobs are wired
// as the `free-rider-frac`, `shade-factor`, `clique-size` and
// `throttle-cap` batch parameters.
type Spec struct {
	// FreeRiderFrac is the fraction of watchers that free-ride: their
	// upload capacity is clamped to zero right after join (they still
	// download and bid truthfully). Membership is a stateless per-peer
	// draw, so it is stable across slots and engines.
	FreeRiderFrac float64 `json:",omitempty"`
	// ShadeFactor makes every watcher understate its valuation: the
	// reported bid value is ShadeFactor × v while welfare is still
	// accounted at the true v. 0 (unset) and 1 mean truthful bidding;
	// values in (0,1) shade.
	ShadeFactor float64 `json:",omitempty"`
	// CliqueSize forms a colluding clique out of the CliqueSize
	// lowest-id live watchers (recomputed each slot as the population
	// churns): members overbid by CliqueBoost to secure supply, and
	// member uplinks refuse every non-member — outsiders are starved
	// down to seeds and other outsiders.
	CliqueSize int `json:",omitempty"`
	// CliqueBoost is the clique's overbidding multiplier (default 4).
	CliqueBoost float64 `json:",omitempty"`
	// TitForTat switches every watcher to reciprocity-based unchoking,
	// the BitTorrent lineage baseline: an uplink serves only the
	// TFTSlots peers that uploaded most to it (plus one rotating
	// optimistic unchoke), once it has any reciprocity history at all.
	// Newcomers serve everyone until first served themselves. Seeds
	// always serve everyone.
	TitForTat bool `json:",omitempty"`
	// TFTSlots is the number of reciprocal unchoke slots (default 3).
	TFTSlots int `json:",omitempty"`
	// Throttle is the ISP-side policy: ISPs that shape cross-boundary
	// P2P egress (internal/isp.Throttle).
	Throttle isp.Throttle `json:",omitempty"`
}

// IsZero reports whether the spec is the honest baseline — the condition
// under which the simulator skips compiling a Runtime entirely.
func (s Spec) IsZero() bool {
	return s.FreeRiderFrac == 0 && s.ShadeFactor == 0 && s.CliqueSize == 0 &&
		s.CliqueBoost == 0 && !s.TitForTat && s.TFTSlots == 0 && s.Throttle.IsZero()
}

// Validate checks the spec against the world's ISP count.
func (s Spec) Validate(numISPs int) error {
	if s.FreeRiderFrac < 0 || s.FreeRiderFrac > 1 {
		return fmt.Errorf("behavior: free-rider fraction %v outside [0,1]", s.FreeRiderFrac)
	}
	if s.ShadeFactor < 0 || s.ShadeFactor > 1 {
		return fmt.Errorf("behavior: shade factor %v outside [0,1] (0 = truthful)", s.ShadeFactor)
	}
	if s.CliqueSize < 0 {
		return fmt.Errorf("behavior: clique size %d negative", s.CliqueSize)
	}
	if s.CliqueBoost < 0 || (s.CliqueBoost > 0 && s.CliqueBoost < 1) {
		return fmt.Errorf("behavior: clique boost %v must be 0 (default) or >= 1", s.CliqueBoost)
	}
	if s.CliqueBoost > 0 && s.CliqueSize == 0 {
		return fmt.Errorf("behavior: clique boost %v set without a clique size", s.CliqueBoost)
	}
	if s.TFTSlots < 0 {
		return fmt.Errorf("behavior: tit-for-tat slots %d negative", s.TFTSlots)
	}
	if s.TFTSlots > 0 && !s.TitForTat {
		return fmt.Errorf("behavior: TFTSlots %d set without TitForTat", s.TFTSlots)
	}
	if err := s.Throttle.Validate(numISPs); err != nil {
		return err
	}
	return nil
}

// String renders a compact label for reports ("honest" for the baseline).
func (s Spec) String() string {
	if s.IsZero() {
		return "honest"
	}
	var parts []string
	if s.FreeRiderFrac > 0 {
		parts = append(parts, fmt.Sprintf("free-rider=%g", s.FreeRiderFrac))
	}
	if s.ShadeFactor > 0 && s.ShadeFactor != 1 {
		parts = append(parts, fmt.Sprintf("shade=%g", s.ShadeFactor))
	}
	if s.CliqueSize > 0 {
		parts = append(parts, fmt.Sprintf("clique=%d", s.CliqueSize))
	}
	if s.TitForTat {
		parts = append(parts, "tit-for-tat")
	}
	if !s.Throttle.IsZero() {
		parts = append(parts, fmt.Sprintf("throttle=%v@%g", s.Throttle.ISPs, s.Throttle.Cap))
	}
	if len(parts) == 0 {
		return "honest"
	}
	return strings.Join(parts, ",")
}

// Default clique boost and tit-for-tat unchoke slots.
const (
	defaultCliqueBoost = 4
	defaultTFTSlots    = 3
)

// Per-policy sub-seed labels (Runtime derives one independent stateless
// stream per policy from the behavior seed, so per-peer and per-edge draws
// can never collide).
const (
	seedLabelFreeRider = 1
	seedLabelThrottle  = 2
)

// Runtime is a Spec compiled against one run: the stateless draw seeds
// plus the per-slot strategic state (clique membership, tit-for-tat
// reciprocity ledger and unchoke sets). It is owned by the single-threaded
// simulator world; methods are not safe for concurrent use.
type Runtime struct {
	spec    Spec
	frSeed  uint64
	thSeed  uint64
	shade   float64
	boost   float64
	tftKeep int

	// clique is this slot's member set (the CliqueSize lowest-id live
	// watchers, recomputed by BeginSlot).
	clique map[isp.PeerID]bool
	// received[d][u] counts chunks d received from u over the run — the
	// reciprocity ledger behind d's future unchoke decisions.
	received map[isp.PeerID]map[isp.PeerID]int64
	// unchoked[u] is u's serve-set this slot (nil = no history yet:
	// newcomer altruism, serve everyone).
	unchoked map[isp.PeerID]map[isp.PeerID]bool

	rankScratch []peerCount
}

type peerCount struct {
	peer  isp.PeerID
	count int64
}

// New compiles a Spec for one run. seed is the behavior stream's root
// (derived from the sim seed, independent of the topology/churn/peer
// streams); numISPs bounds the throttle declaration.
func New(spec Spec, numISPs int, seed uint64) (*Runtime, error) {
	if err := spec.Validate(numISPs); err != nil {
		return nil, err
	}
	root := randx.New(seed)
	r := &Runtime{
		spec:    spec,
		frSeed:  root.Derive(seedLabelFreeRider).Uint64(),
		thSeed:  root.Derive(seedLabelThrottle).Uint64(),
		shade:   spec.ShadeFactor,
		boost:   spec.CliqueBoost,
		tftKeep: spec.TFTSlots,
	}
	if r.shade == 0 {
		r.shade = 1
	}
	if r.boost == 0 {
		r.boost = defaultCliqueBoost
	}
	if r.tftKeep == 0 {
		r.tftKeep = defaultTFTSlots
	}
	if spec.CliqueSize > 0 {
		r.clique = make(map[isp.PeerID]bool, spec.CliqueSize)
	}
	if spec.TitForTat {
		r.received = make(map[isp.PeerID]map[isp.PeerID]int64)
		r.unchoked = make(map[isp.PeerID]map[isp.PeerID]bool)
	}
	return r, nil
}

// Spec returns the compiled spec.
func (r *Runtime) Spec() Spec { return r.spec }

// FreeRider reports whether watcher p free-rides: a stateless per-peer
// draw under FreeRiderFrac, stable for the run.
func (r *Runtime) FreeRider(p isp.PeerID) bool {
	if r.spec.FreeRiderFrac <= 0 {
		return false
	}
	return randx.New(r.frSeed).Derive(uint64(p)).Bool(r.spec.FreeRiderFrac)
}

// ClampCapacity applies the free-rider clamp to a freshly joined
// watcher's drawn upload capacity (seeds never pass through here).
func (r *Runtime) ClampCapacity(p isp.PeerID, capacity int) int {
	if r.FreeRider(p) {
		return 0
	}
	return capacity
}

// MisreportsValue reports whether any active policy makes reported bid
// values differ from true valuations — the condition under which
// grant-application welfare must re-derive the true value from the
// deadline instead of trusting the instance.
func (r *Runtime) MisreportsValue() bool {
	return r.shade != 1 || r.spec.CliqueSize > 0
}

// ReportedValue returns the bid value watcher p reports for a chunk it
// truly values at v: clique members overbid by the boost, everyone else
// shades (truthfully when ShadeFactor is unset).
func (r *Runtime) ReportedValue(p isp.PeerID, v float64) float64 {
	if r.clique != nil && r.clique[p] {
		return v * r.boost
	}
	return v * r.shade
}

// AllowEdge reports whether uploader up (in upISP, seed status upSeed)
// offers its uplink to downloader down (in downISP) this slot: the
// bid-generation edge filter combining the ISP throttle, clique
// starvation and tit-for-tat choking.
func (r *Runtime) AllowEdge(up isp.PeerID, upISP isp.ID, upSeed bool, down isp.PeerID, downISP isp.ID) bool {
	if !r.spec.Throttle.IsZero() &&
		!r.spec.Throttle.Admits(r.thSeed, up, upISP, down, downISP) {
		return false
	}
	if r.clique != nil && r.clique[up] && !r.clique[down] {
		return false
	}
	if r.spec.TitForTat && !upSeed {
		if set, ok := r.unchoked[up]; ok && !set[down] {
			return false
		}
	}
	return true
}

// BeginSlot recomputes the slot's strategic state: clique membership (the
// CliqueSize lowest-id entries of watchers, which the world passes in
// deterministic iteration order) and the tit-for-tat unchoke sets (top
// TFTSlots reciprocators plus one rotating optimistic unchoke from the
// current neighbor list). Called once per slot by both engines, right
// after the neighbor refresh.
func (r *Runtime) BeginSlot(slot int, watchers []isp.PeerID, neighborsOf func(isp.PeerID) []isp.PeerID) {
	if r.clique != nil {
		clear(r.clique)
		n := r.spec.CliqueSize
		if n > len(watchers) {
			n = len(watchers)
		}
		for _, id := range watchers[:n] {
			r.clique[id] = true
		}
	}
	if !r.spec.TitForTat {
		return
	}
	clear(r.unchoked)
	for _, u := range watchers {
		ledger := r.received[u]
		if len(ledger) == 0 {
			continue // newcomer altruism: no history, serve everyone
		}
		rank := r.rankScratch[:0]
		for peer, n := range ledger {
			rank = append(rank, peerCount{peer: peer, count: n})
		}
		sort.Slice(rank, func(i, j int) bool {
			if rank[i].count != rank[j].count {
				return rank[i].count > rank[j].count
			}
			return rank[i].peer < rank[j].peer
		})
		keep := r.tftKeep
		if keep > len(rank) {
			keep = len(rank)
		}
		set := make(map[isp.PeerID]bool, keep+1)
		for _, pc := range rank[:keep] {
			set[pc.peer] = true
		}
		if nbs := neighborsOf(u); len(nbs) > 0 {
			set[nbs[slot%len(nbs)]] = true // optimistic unchoke, rotating
		}
		r.unchoked[u] = set
		r.rankScratch = rank[:0]
	}
}

// RecordGrant advances the reciprocity ledger at grant-application time:
// down received one chunk from up, so up ranks higher in down's future
// unchoke decisions.
func (r *Runtime) RecordGrant(up, down isp.PeerID) {
	if !r.spec.TitForTat {
		return
	}
	ledger := r.received[down]
	if ledger == nil {
		ledger = make(map[isp.PeerID]int64)
		r.received[down] = ledger
	}
	ledger[up]++
}

// Forget drops a departed peer's strategic state (reciprocity ledger and
// unchoke set); stateless draws need no cleanup.
func (r *Runtime) Forget(p isp.PeerID) {
	if r.spec.TitForTat {
		delete(r.received, p)
		delete(r.unchoked, p)
	}
}
