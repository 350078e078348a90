package netsim

import (
	"testing"
	"time"

	"repro/internal/randx"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	mustAt := func(at time.Duration, id int) {
		t.Helper()
		if err := s.At(at, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	mustAt(30*time.Millisecond, 3)
	mustAt(10*time.Millisecond, 1)
	mustAt(20*time.Millisecond, 2)
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.At(time.Second, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerRejectsPast(t *testing.T) {
	s := NewScheduler()
	if err := s.At(time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if err := s.At(time.Millisecond, func() {}); err == nil {
		t.Fatal("scheduling in the past should error")
	}
	if err := s.After(-time.Second, func() {}); err == nil {
		t.Fatal("negative After should error")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	fired := 0
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if err := s.At(d, func() { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(2*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock should advance to the boundary, got %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSchedulerCascade(t *testing.T) {
	// Events scheduling further events, like a bidding war.
	s := NewScheduler()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 5 {
			if err := s.After(time.Millisecond, chain); err != nil {
				t.Error(err)
			}
		}
	}
	if err := s.At(0, chain); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("cascade depth = %d", depth)
	}
	if s.Executed() != 5 {
		t.Fatalf("executed = %d", s.Executed())
	}
}

func TestDrainGuard(t *testing.T) {
	s := NewScheduler()
	var loop func()
	loop = func() {
		if err := s.After(time.Millisecond, loop); err != nil {
			t.Error(err)
		}
	}
	if err := s.At(0, loop); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(100); err == nil {
		t.Fatal("runaway guard should fire")
	}
}

type recorder struct {
	got []recordedMsg
}

type recordedMsg struct {
	from NodeID
	msg  any
	at   time.Duration
}

func (r *recorder) handler(s *Scheduler) Handler {
	return handlerFunc(func(from NodeID, msg any) {
		r.got = append(r.got, recordedMsg{from: from, msg: msg, at: s.Now()})
	})
}

type handlerFunc func(from NodeID, msg any)

func (f handlerFunc) HandleMessage(from NodeID, msg any) { f(from, msg) }

func fixedLatency(d time.Duration) LatencyFunc {
	return func(from, to NodeID) time.Duration { return d }
}

func newTestNet(t *testing.T, latency LatencyFunc) (*Scheduler, *Network) {
	t.Helper()
	s := NewScheduler()
	n, err := NewNetwork(s, latency, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return s, n
}

func TestNetworkDelivery(t *testing.T) {
	s, n := newTestNet(t, fixedLatency(5*time.Millisecond))
	var rec recorder
	n.Register(2, rec.handler(s))
	n.Send(1, 2, "hello")
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 1 {
		t.Fatalf("delivered %d messages", len(rec.got))
	}
	if rec.got[0].from != 1 || rec.got[0].msg != "hello" {
		t.Fatalf("wrong message: %+v", rec.got[0])
	}
	if rec.got[0].at != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", rec.got[0].at)
	}
}

func TestNetworkLatencyPerPair(t *testing.T) {
	lat := func(from, to NodeID) time.Duration {
		return time.Duration(int(from)+int(to)) * time.Millisecond
	}
	s, n := newTestNet(t, lat)
	var rec recorder
	n.Register(3, rec.handler(s))
	n.Send(1, 3, "a") // 4ms
	n.Send(2, 3, "b") // 5ms
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if rec.got[0].msg != "a" || rec.got[1].msg != "b" {
		t.Fatalf("delivery order wrong: %+v", rec.got)
	}
	if rec.got[0].at != 4*time.Millisecond || rec.got[1].at != 5*time.Millisecond {
		t.Fatalf("delivery times wrong: %+v", rec.got)
	}
}

func TestNetworkUnregisteredDrops(t *testing.T) {
	s, n := newTestNet(t, fixedLatency(time.Millisecond))
	n.Send(1, 9, "void")
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	sent, delivered, dropped := n.Stats()
	if sent != 1 || delivered != 0 || dropped != 1 {
		t.Fatalf("stats = %d/%d/%d", sent, delivered, dropped)
	}
}

func TestNetworkDepartureRace(t *testing.T) {
	// A message in flight when the destination unregisters is dropped.
	s, n := newTestNet(t, fixedLatency(10*time.Millisecond))
	var rec recorder
	n.Register(2, rec.handler(s))
	n.Send(1, 2, "racing")
	if err := s.At(5*time.Millisecond, func() { n.Unregister(2) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 0 {
		t.Fatal("message should be dropped after departure")
	}
}

func TestNetworkDropRate(t *testing.T) {
	s, n := newTestNet(t, fixedLatency(time.Millisecond))
	var rec recorder
	n.Register(2, rec.handler(s))
	n.SetDropRate(0.5)
	const total = 10000
	for i := 0; i < total; i++ {
		n.Send(1, 2, i)
	}
	if err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	got := len(rec.got)
	if got < 4500 || got > 5500 {
		t.Fatalf("with 50%% loss delivered %d/%d", got, total)
	}
	n.SetDropRate(-1)
	n.SetDropRate(2) // clamps, no panic
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, fixedLatency(0), nil); err == nil {
		t.Error("nil scheduler should error")
	}
	if _, err := NewNetwork(NewScheduler(), nil, nil); err == nil {
		t.Error("nil latency should error")
	}
	// nil rng is allowed (deterministic default).
	if _, err := NewNetwork(NewScheduler(), fixedLatency(0), nil); err != nil {
		t.Errorf("nil rng should default: %v", err)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() []recordedMsg {
		s := NewScheduler()
		n, err := NewNetwork(s, fixedLatency(time.Millisecond), randx.New(9))
		if err != nil {
			t.Fatal(err)
		}
		var rec recorder
		n.Register(2, rec.handler(s))
		n.SetDropRate(0.3)
		for i := 0; i < 200; i++ {
			n.Send(1, 2, i)
		}
		if err := s.Drain(0); err != nil {
			t.Fatal(err)
		}
		return rec.got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic delivery at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
