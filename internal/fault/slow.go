package fault

import (
	"sync"
	"time"

	"repro/internal/sched"
)

// SlowScheduler wraps any scheduler and sleeps before delegating, simulating
// a solver that has fallen behind its wall-clock budget. The sleep eats the
// daemon's solve deadline exactly as a genuinely hard instance would, so the
// wrapped solve stops at its first deadline check: the overrun drill.
type SlowScheduler struct {
	Inner sched.Scheduler
	// Delay is the injected pause before each (selected) solve.
	Delay time.Duration
	// EveryN fires the delay on every Nth solve only (1-based; 0 or 1 =
	// every solve), so drills can alternate overruns with clean recoveries.
	EveryN int

	mu sync.Mutex
	n  int
}

// Slow wraps inner per the spec's solve-delay axis. It returns inner
// unchanged when the spec injects no delay, so callers can wrap
// unconditionally.
func Slow(inner sched.Scheduler, spec Spec) sched.Scheduler {
	if spec.SolveDelay <= 0 {
		return inner
	}
	return &SlowScheduler{Inner: inner, Delay: spec.SolveDelay, EveryN: spec.SolveDelayEveryN}
}

// Name labels the wrapper so daemon stats show the drill is active.
func (s *SlowScheduler) Name() string { return s.Inner.Name() + "+slow" }

// Schedule sleeps if this solve is selected, then delegates.
func (s *SlowScheduler) Schedule(in *sched.Instance) (*sched.Result, error) {
	s.mu.Lock()
	s.n++
	fire := s.EveryN <= 1 || s.n%s.EveryN == 0
	s.mu.Unlock()
	if fire && s.Delay > 0 {
		time.Sleep(s.Delay)
	}
	return s.Inner.Schedule(in)
}
