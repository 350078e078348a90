// Package netsim is a deterministic discrete-event network simulator: the
// substrate on which the distributed auction protocol runs at message level.
//
// It provides a virtual clock, an event queue with stable FIFO tie-breaking,
// and a message-passing network whose per-message latency is supplied by the
// caller (the simulator wires it to the ISP cost model, reproducing the
// paper's environment where inter-ISP links are slower than intra-ISP ones).
// Per-message loss supports the robustness experiments.
package netsim

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/randx"
)

// NodeID identifies a simulated node (peer or tracker).
type NodeID int

// Handler receives messages delivered by the network.
type Handler interface {
	// HandleMessage is invoked at the simulated delivery time. It runs on
	// the single simulation goroutine; implementations may send messages and
	// schedule events but must not block.
	HandleMessage(from NodeID, msg any)
}

// event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tie-break for equal timestamps
	fn  func()
}

// eventHeap is a min-heap ordered by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// Scheduler owns the virtual clock and event queue. It is single-threaded:
// Run/RunUntil/Step execute events in timestamp order on the caller's
// goroutine.
type Scheduler struct {
	queue eventHeap
	now   time.Duration
	seq   uint64
	ran   uint64
}

// NewScheduler returns a scheduler at time 0.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Executed returns how many events have run so far.
func (s *Scheduler) Executed() uint64 { return s.ran }

// At schedules fn at absolute time t. Scheduling in the past is an error.
func (s *Scheduler) At(t time.Duration, fn func()) error {
	if t < s.now {
		return fmt.Errorf("netsim: scheduling at %v before now %v", t, s.now)
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
	return nil
}

// After schedules fn d after the current time. Negative d is an error.
func (s *Scheduler) After(d time.Duration, fn func()) error {
	return s.At(s.now+d, fn)
}

// Step executes the single next event, returning false when the queue is
// empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev, ok := heap.Pop(&s.queue).(*event)
	if !ok {
		panic("netsim: event heap corrupted")
	}
	s.now = ev.at
	s.ran++
	ev.fn()
	return true
}

// RunUntil executes events with timestamp <= t, then advances the clock to t.
// maxEvents caps execution as a runaway guard (0 = no cap).
func (s *Scheduler) RunUntil(t time.Duration, maxEvents uint64) error {
	executed := uint64(0)
	for len(s.queue) > 0 && s.queue[0].at <= t {
		if maxEvents > 0 && executed >= maxEvents {
			return fmt.Errorf("netsim: RunUntil(%v) exceeded %d events", t, maxEvents)
		}
		s.Step()
		executed++
	}
	if s.now < t {
		s.now = t
	}
	return nil
}

// Drain executes events until the queue is empty, with a runaway guard.
func (s *Scheduler) Drain(maxEvents uint64) error {
	executed := uint64(0)
	for s.Step() {
		executed++
		if maxEvents > 0 && executed >= maxEvents {
			return fmt.Errorf("netsim: Drain exceeded %d events", maxEvents)
		}
	}
	return nil
}

// LatencyFunc returns the one-way delay for a message from one node to
// another.
type LatencyFunc func(from, to NodeID) time.Duration

// Network delivers messages between registered handlers with per-pair latency
// and independent per-message loss.
type Network struct {
	sched    *Scheduler
	latency  LatencyFunc
	handlers map[NodeID]Handler

	rng      *randx.Source
	dropRate float64

	sent      uint64
	delivered uint64
	dropped   uint64
}

// NewNetwork creates a network on the given scheduler. latency must not be
// nil; rng seeds the loss stream (message loss is deterministic too).
func NewNetwork(sched *Scheduler, latency LatencyFunc, rng *randx.Source) (*Network, error) {
	if sched == nil {
		return nil, fmt.Errorf("netsim: nil scheduler")
	}
	if latency == nil {
		return nil, fmt.Errorf("netsim: nil latency function")
	}
	if rng == nil {
		rng = randx.New(0)
	}
	return &Network{
		sched:    sched,
		latency:  latency,
		handlers: make(map[NodeID]Handler),
		rng:      rng,
	}, nil
}

// Register attaches a handler to id. Re-registering replaces the handler
// (used when a peer rejoins); registering nil detaches it.
func (n *Network) Register(id NodeID, h Handler) {
	if h == nil {
		delete(n.handlers, id)
		return
	}
	n.handlers[id] = h
}

// Unregister removes the node; in-flight messages to it are dropped at
// delivery time (models a departed peer).
func (n *Network) Unregister(id NodeID) {
	delete(n.handlers, id)
}

// Registered reports whether id currently has a handler.
func (n *Network) Registered(id NodeID) bool {
	_, ok := n.handlers[id]
	return ok
}

// SetDropRate makes each message independently lost with probability p
// (clamped to [0,1]).
func (n *Network) SetDropRate(p float64) {
	switch {
	case p < 0:
		n.dropRate = 0
	case p > 1:
		n.dropRate = 1
	default:
		n.dropRate = p
	}
}

// Send schedules delivery of msg from→to after the pair's latency, unless
// the message is lost. Sending to an unregistered node is not an error: the
// message is dropped at delivery time, exactly like a message racing a peer's
// departure.
func (n *Network) Send(from, to NodeID, msg any) {
	n.sent++
	if n.dropRate > 0 && n.rng.Bool(n.dropRate) {
		n.dropped++
		return
	}
	delay := n.latency(from, to)
	if delay < 0 {
		delay = 0
	}
	err := n.sched.After(delay, func() {
		h, ok := n.handlers[to]
		if !ok {
			n.dropped++
			return
		}
		n.delivered++
		h.HandleMessage(from, msg)
	})
	if err != nil {
		// After with non-negative delay can only fail if the clock moved
		// backwards, which the scheduler forbids.
		panic(err)
	}
}

// Stats reports message counters: sent, delivered, dropped.
func (n *Network) Stats() (sent, delivered, dropped uint64) {
	return n.sent, n.delivered, n.dropped
}
