package sim

import "repro/internal/sched"

// RoundRequest is one request of a bidding round as the world built it,
// beside the value its deadline has when computed directly: the world's
// Valuation.Value, then its behavior runtime's ReportedValue.
type RoundRequest struct {
	Slot, Round int
	Request     sched.Request
	Want        float64
	// Started reports whether the requesting peer's playback had begun.
	Started bool
}

// visitRound hands visit every request of round j's instance in.
func (w *world) visitRound(j int, in *sched.Instance, visit func(RoundRequest)) {
	for _, req := range in.Requests {
		want := w.cfg.Valuation.Value(req.Deadline)
		if w.behave != nil {
			want = w.behave.ReportedValue(req.Peer, want)
		}
		visit(RoundRequest{
			Slot: w.slot, Round: j, Request: req, Want: want,
			Started: w.peers[req.Peer].started(w.slot),
		})
	}
}

// RunRoundRequests runs cfg under a cold auction and hands visit every
// request of every bidding round before the round is solved.
func RunRoundRequests(cfg Config, visit func(RoundRequest)) error {
	_, err := Run(cfg, &roundVisitor{inner: &sched.Auction{Epsilon: cfg.Epsilon}, visit: visit})
	return err
}

// roundVisitor binds to the world, so it reads the world's valuation,
// behavior runtime and peers as the round's build left them.
type roundVisitor struct {
	w           *world
	inner       sched.Scheduler
	visit       func(RoundRequest)
	slot, round int
}

func (v *roundVisitor) bind(w *world) error { v.w, v.slot = w, -1; return nil }
func (v *roundVisitor) finish(*Results)     {}
func (v *roundVisitor) Name() string        { return v.inner.Name() }

func (v *roundVisitor) Schedule(in *sched.Instance) (*sched.Result, error) {
	if v.w.slot != v.slot {
		v.slot, v.round = v.w.slot, 0
	}
	v.w.visitRound(v.round, in, v.visit)
	v.round++
	return v.inner.Schedule(in)
}

// JoinRoundRequests builds cfg's world, lets arrivals join it that start
// playback next slot, and hands visit every request of the current slot's
// bidding rounds: those arrivals are valued before their playback begins,
// which no slot of Run shows (it admits arrivals between slots).
func JoinRoundRequests(cfg Config, arrivals int, visit func(RoundRequest)) error {
	w, err := newWorld(cfg)
	if err != nil {
		return err
	}
	for range arrivals {
		if err := w.spawnDynamicPeer(); err != nil {
			return err
		}
	}
	w.refreshNeighbors()
	for j := range cfg.BidRoundsPerSlot {
		in, err := w.buildInstance(j)
		if err != nil {
			return err
		}
		w.visitRound(j, in, visit)
	}
	return nil
}

// SteadyBuild builds cfg's world and runs warm slots of it under a cold
// auction. It returns one slot's market build of the warm world — a
// neighbor refresh plus the round-0 instance build, reporting the
// instance's request count — which leaves the world as it found it.
func SteadyBuild(cfg Config, warm int) (func() (int, error), error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	scheduler := &sched.Auction{Epsilon: cfg.Epsilon}
	res := &Results{}
	for slot := range warm {
		w.slot = slot
		if err := stepSlot(w, scheduler, res); err != nil {
			return nil, err
		}
	}
	w.slot = warm
	return func() (int, error) {
		w.refreshNeighbors()
		in, err := w.buildInstance(0)
		if err != nil {
			return 0, err
		}
		return len(in.Requests), nil
	}, nil
}
