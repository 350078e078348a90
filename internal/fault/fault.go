// Package fault is the deterministic fault-injection layer. A declarative
// Spec describes which failure axes are active — crash-stop peers in the sim,
// lossy/delayed links on the live TCP path, artificially slow solves, and a
// process-kill point in the daemon — and an Injector compiles it against a
// seed-derived random stream, so a faulty run is exactly as reproducible as a
// clean one. The zero Spec means "no faults": every consumer gates its fault
// path on Spec.IsZero() and draws nothing from the fault streams when it is
// off, which keeps fault-free runs bit-identical to builds that predate this
// package.
package fault

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/randx"
)

// Spec declares the active fault axes. The zero value disables everything.
// Each axis is independent: enabling one never perturbs the random draws of
// another (they ride separate derived streams), so sweeps over, say, CrashProb
// hold the link-fault trace fixed.
type Spec struct {
	// CrashProb is the per-slot probability that a live non-seed watcher
	// crash-stops at the slot boundary: it departs immediately without the
	// static-world respawn, mid-download state lost. [0, 1].
	CrashProb float64 `json:"crash_prob,omitempty"`
	// RejoinAfterSlots, when > 0, respawns each crashed watcher as a fresh
	// arrival that many slots after the crash (new identity, new video draw —
	// a reboot, not a resume). 0 means crashed peers never come back.
	RejoinAfterSlots int `json:"rejoin_after_slots,omitempty"`

	// SolveDelay injects a sleep before each solve on a wrapped scheduler
	// (see Slow), forcing deadline overruns in the daemon without needing a
	// genuinely expensive instance.
	SolveDelay time.Duration `json:"solve_delay,omitempty"`
	// SolveDelayEveryN fires the delay only on every Nth solve (1-based;
	// 0 or 1 = every solve). Lets drills alternate overrun and recovery.
	SolveDelayEveryN int `json:"solve_delay_every_n,omitempty"`

	// DropProb is the per-message loss probability of the auction
	// protocol's links, on both of its transports: the live TCP hub drops a
	// forwarded envelope, and the sim's message-level auction (auction-des)
	// drops a network message. Nothing retransmits — bidders re-bid only on
	// an explicit rejection or eviction, as in the paper — so a lost bid or
	// answer leaves that request unresolved for the round, and a lost win
	// notice leaves the books one-sided (the auctioneer's book is the one
	// that transfers). [0, 1].
	DropProb float64 `json:"drop_prob,omitempty"`
	// DelayMax, when > 0, holds each forwarded envelope for a uniform
	// [0, DelayMax) duration before delivery — per-link latency jitter.
	// Delivery order per connection is preserved (a slow link, not UDP).
	DelayMax time.Duration `json:"delay_max,omitempty"`

	// KillAfterTicks, when > 0, trips the daemon's kill point after that many
	// completed ticks. The daemon only signals; the operator (schedulerd, or
	// a test) exits without draining — a SIGKILL-equivalent for recovery
	// drills.
	KillAfterTicks int `json:"kill_after_ticks,omitempty"`
}

// IsZero reports whether the spec disables all fault axes.
func (s Spec) IsZero() bool { return s == Spec{} }

// Validate rejects out-of-range parameters.
func (s Spec) Validate() error {
	if s.CrashProb < 0 || s.CrashProb > 1 {
		return fmt.Errorf("fault: CrashProb %v outside [0, 1]", s.CrashProb)
	}
	if s.RejoinAfterSlots < 0 {
		return fmt.Errorf("fault: RejoinAfterSlots %d negative", s.RejoinAfterSlots)
	}
	if s.SolveDelay < 0 {
		return fmt.Errorf("fault: SolveDelay %v negative", s.SolveDelay)
	}
	if s.SolveDelayEveryN < 0 {
		return fmt.Errorf("fault: SolveDelayEveryN %d negative", s.SolveDelayEveryN)
	}
	if s.DropProb < 0 || s.DropProb > 1 {
		return fmt.Errorf("fault: DropProb %v outside [0, 1]", s.DropProb)
	}
	if s.DelayMax < 0 {
		return fmt.Errorf("fault: DelayMax %v negative", s.DelayMax)
	}
	if s.KillAfterTicks < 0 {
		return fmt.Errorf("fault: KillAfterTicks %d negative", s.KillAfterTicks)
	}
	return nil
}

// Stream labels for the per-axis child streams, derived from the injector
// seed. Keyed derivation (not sequential splits) so adding an axis never
// shifts another axis's draws.
const (
	labelCrash  = 1
	labelRejoin = 2
	labelLink   = 3
)

// Injector is a compiled Spec: per-axis deterministic random streams plus
// counters. Crash draws are made by the single-threaded sim loop; link draws
// come from concurrent hub goroutines, so those are mutex-guarded. For one
// (Spec, seed) pair the drop/delay sequence is fixed regardless of wall-clock
// interleaving — the kth forwarded message gets the kth draw.
type Injector struct {
	spec Spec

	rngCrash  *randx.Source
	rngRejoin *randx.Source

	mu      sync.Mutex // guards rngLink and the counters below
	rngLink *randx.Source
	crashes int64
	rejoins int64
	drops   int64
	delays  int64
}

// NewInjector compiles a validated spec against a seed. Callers gate on
// spec.IsZero() and pass a derived seed so the fault streams never overlap
// the model's own randomness.
func NewInjector(spec Spec, seed uint64) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := randx.New(seed)
	return &Injector{
		spec:      spec,
		rngCrash:  root.Derive(labelCrash),
		rngRejoin: root.Derive(labelRejoin),
		rngLink:   root.Derive(labelLink),
	}, nil
}

// Spec returns the spec the injector was compiled from.
func (inj *Injector) Spec() Spec { return inj.spec }

// CrashPeer draws one crash-stop decision for a live watcher this slot.
// The sim calls it once per eligible peer in deterministic order.
func (inj *Injector) CrashPeer() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.rngCrash.Bool(inj.spec.CrashProb) {
		return false
	}
	inj.crashes++
	return true
}

// RejoinRand exposes the rejoin stream, used by the sim to draw a fresh video
// and placement for a respawned peer without touching the churn stream.
func (inj *Injector) RejoinRand() *randx.Source {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.rejoins++
	return inj.rngRejoin
}

// LinkFate draws the fate of one forwarded envelope: dropped, and if not, how
// long to hold it. Safe for concurrent use; each message consumes a fixed
// number of draws so the sequence is seed-stable.
func (inj *Injector) LinkFate() (drop bool, delay time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.rngLink.Bool(inj.spec.DropProb) {
		inj.drops++
		return true, 0
	}
	if inj.spec.DelayMax > 0 {
		delay = time.Duration(inj.rngLink.Float64() * float64(inj.spec.DelayMax))
		if delay > 0 {
			inj.delays++
		}
	}
	return false, delay
}

// Stats is a point-in-time snapshot of what the injector has done.
type Stats struct {
	Crashes int64 // crash-stop decisions that fired
	Rejoins int64 // rejoin draws handed out
	Drops   int64 // envelopes dropped on the live path
	Delays  int64 // envelopes delayed on the live path
}

// Stats returns the injector's counters.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return Stats{Crashes: inj.crashes, Rejoins: inj.rejoins, Drops: inj.drops, Delays: inj.delays}
}
