// Package obs is the repo's dependency-free tracing and telemetry core.
//
// It has two halves:
//
//   - A span recorder. A Trace owns a set of named Tracks, each a fixed-size
//     ring buffer of completed spans. A Track is meant to be owned by one
//     goroutine at a time (the sim loop, one shard worker); tracks created
//     with SharedTrack take a mutex per record and may be appended to from
//     concurrent goroutines (HTTP handlers). Spans are recorded only at End,
//     so installing or removing a trace mid-run never leaves unmatched
//     begins. The exporters in export.go turn a Trace into Chrome
//     trace-event JSON (chrome://tracing / Perfetto).
//
//   - A metrics registry, the repo's only metric implementation. Counters
//     and gauges are plain structs bumped with sync/atomic — no locks
//     anywhere near a solve path — histograms take a short mutex per
//     observation, and a Registry renders them all in Prometheus text
//     exposition format for a /metrics handler.
//
// Tracing is off by default. A single package-level atomic pointer holds the
// active trace; when none is installed, TrackFor returns nil and every span
// method on a nil Track/empty Span is a no-op costing one atomic load plus a
// nil check — no allocations, no branches into shared state. Callers
// therefore never guard call sites with "if tracing is on".
package obs

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// active is the package-level enable flag: nil means tracing is disabled.
var active atomic.Pointer[Trace]

// Install makes t the process-wide active trace. It fails if another trace
// is already active, which serializes concurrent capture requests (e.g. two
// /debug/trace fetches) without extra locking.
func Install(t *Trace) error {
	if t == nil {
		return errors.New("obs: cannot install a nil trace")
	}
	if !active.CompareAndSwap(nil, t) {
		return errors.New("obs: a trace capture is already active")
	}
	return nil
}

// Uninstall disables tracing and returns the trace that was active, if any.
// Spans already recorded stay readable in the returned trace.
func Uninstall() *Trace {
	return active.Swap(nil)
}

// Active returns the installed trace, or nil when tracing is disabled.
func Active() *Trace {
	return active.Load()
}

// TrackFor returns the named single-owner track of the active trace, or nil
// when tracing is disabled. The nil track is a valid receiver for Begin.
func TrackFor(name string) *Track {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.Track(name)
}

// SharedTrackFor is TrackFor for tracks recorded from concurrent goroutines.
func SharedTrackFor(name string) *Track {
	t := active.Load()
	if t == nil {
		return nil
	}
	return t.SharedTrack(name)
}

// maxSpanArgs bounds the per-span annotation payload; extra Arg calls are
// dropped rather than allocating.
const maxSpanArgs = 8

// Arg is one numeric span annotation.
type Arg struct {
	Key string
	Val float64
}

// spanRec is a completed span as stored in a track's ring buffer. Times are
// nanoseconds since the trace epoch.
type spanRec struct {
	name  string
	start int64
	dur   int64
	nargs int32
	args  [maxSpanArgs]Arg
}

// Trace is one capture session: an epoch, a span budget per track, and the
// tracks registered so far (in registration order, which is deterministic
// for a deterministic program).
type Trace struct {
	process  string
	epoch    time.Time
	maxSpans int

	mu     sync.Mutex
	tracks []*Track
	byName map[string]*Track
}

// DefaultMaxSpans is the per-track ring capacity used when NewTrace is given
// a non-positive budget.
const DefaultMaxSpans = 1 << 16

// NewTrace creates a capture session. process names the trace-event process
// row; maxSpansPerTrack bounds each track's ring buffer (oldest spans are
// overwritten once full).
func NewTrace(process string, maxSpansPerTrack int) *Trace {
	if maxSpansPerTrack <= 0 {
		maxSpansPerTrack = DefaultMaxSpans
	}
	return &Trace{
		process:  process,
		epoch:    time.Now(),
		maxSpans: maxSpansPerTrack,
		byName:   make(map[string]*Track),
	}
}

// sinceEpoch is the trace clock: monotonic nanoseconds since NewTrace.
func (t *Trace) sinceEpoch() int64 {
	return int64(time.Since(t.epoch))
}

// Track returns the named track, creating it on first use. The returned
// track must only be appended to by one goroutine at a time; callers that
// need concurrent appends use SharedTrack.
func (t *Trace) Track(name string) *Track {
	return t.track(name, false)
}

// SharedTrack returns the named track with per-record locking enabled, for
// tracks fed by concurrent goroutines (e.g. HTTP handlers).
func (t *Trace) SharedTrack(name string) *Track {
	return t.track(name, true)
}

func (t *Trace) track(name string, shared bool) *Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tk, ok := t.byName[name]; ok {
		return tk
	}
	tk := &Track{
		trace:  t,
		id:     len(t.tracks) + 1,
		name:   name,
		shared: shared,
		spans:  make([]spanRec, 0, t.maxSpans),
	}
	t.tracks = append(t.tracks, tk)
	t.byName[name] = tk
	return tk
}

// snapshotTracks returns the registered tracks in registration order.
func (t *Trace) snapshotTracks() []*Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Track, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// SpanCount reports the total spans currently held across all tracks (spans
// evicted from full rings are not counted).
func (t *Trace) SpanCount() int {
	n := 0
	for _, tk := range t.snapshotTracks() {
		n += len(tk.ordered())
	}
	return n
}

// Dropped reports how many spans were evicted from full rings across all
// tracks.
func (t *Trace) Dropped() uint64 {
	var n uint64
	for _, tk := range t.snapshotTracks() {
		tk.lock()
		n += tk.dropped
		tk.unlock()
	}
	return n
}

// Track is one timeline (one trace-event "thread"): a fixed-size ring of
// completed spans owned by a single goroutine, unless created shared.
type Track struct {
	trace  *Trace
	id     int
	name   string
	shared bool

	mu      sync.Mutex // guards spans/next/dropped when shared
	spans   []spanRec
	next    int // overwrite cursor once len(spans) == cap
	dropped uint64
}

// Name returns the track's registered name; empty for the nil track.
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

func (t *Track) lock() {
	if t.shared {
		t.mu.Lock()
	}
}

func (t *Track) unlock() {
	if t.shared {
		t.mu.Unlock()
	}
}

// Begin starts a span. On a nil track (tracing disabled) it returns an
// empty span whose methods all no-op.
func (t *Track) Begin(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{track: t, name: name, start: t.trace.sinceEpoch()}
}

// record appends a completed span, overwriting the oldest once the ring is
// full.
func (t *Track) record(rec spanRec) {
	t.lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, rec)
	} else {
		t.spans[t.next] = rec
		t.next++
		if t.next == len(t.spans) {
			t.next = 0
		}
		t.dropped++
	}
	t.unlock()
}

// ordered returns the retained spans oldest-first.
func (t *Track) ordered() []spanRec {
	t.lock()
	defer t.unlock()
	if t.dropped == 0 {
		out := make([]spanRec, len(t.spans))
		copy(out, t.spans)
		return out
	}
	out := make([]spanRec, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	out = append(out, t.spans[:t.next]...)
	return out
}

// Span is an in-flight interval on a track. The zero Span (from a disabled
// Begin) is valid: Arg and End are no-ops. Spans are values; do not share
// one across goroutines.
type Span struct {
	track *Track
	name  string
	start int64
	nargs int32
	args  [maxSpanArgs]Arg
}

// Arg annotates the span with a numeric value. At most maxSpanArgs stick;
// the rest are silently dropped. Returns the receiver for chaining.
func (s *Span) Arg(key string, v float64) *Span {
	if s.track == nil {
		return s
	}
	if int(s.nargs) < maxSpanArgs {
		s.args[s.nargs] = Arg{Key: key, Val: v}
		s.nargs++
	}
	return s
}

// End completes the span and records it on its track.
func (s *Span) End() {
	t := s.track
	if t == nil {
		return
	}
	t.record(spanRec{
		name:  s.name,
		start: s.start,
		dur:   t.trace.sinceEpoch() - s.start,
		nargs: s.nargs,
		args:  s.args,
	})
}

// Counter is a monotonically increasing metric bumped with a single atomic
// add. The nil counter no-ops, so call sites need no registration guard.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float metric stored as float bits in an atomic
// word. The nil gauge no-ops. Registered with Registry.FloatCounter it is a
// float-valued counter that only ever sees Add.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d via a CAS loop; intended for low-frequency
// flush paths, not per-bid hot loops.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored float.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a cumulative-bucket histogram with Prometheus semantics: each
// bucket counts observations ≤ its upper bound, plus the +Inf catch-all. It
// keeps a mutex because an observation must update a bucket, the sum and the
// count together.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []uint64  // len(bounds)+1; last is +Inf
	sum    float64
	total  uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Registry holds named metric families and renders them in Prometheus text
// exposition format, in registration order (see prom.go). Registration takes
// a lock; counters and gauges are updated lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order; append-only
	byName   map[string]*family
}

// family is one registered metric: exactly one of counter, gauge and hist is
// set. kind is "counter", "gauge", "float counter" (a Gauge exposed as a
// counter) or "histogram".
type family struct {
	name, help, kind string
	counter          *Counter
	gauge            *Gauge
	hist             *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter returns the named counter, registering it on first use. It panics
// if the name is invalid or already registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(&family{name: name, help: help, kind: "counter", counter: new(Counter)}).counter
}

// Gauge returns the named gauge, registering it on first use. It panics if
// the name is invalid or already registered as a different kind.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(&family{name: name, help: help, kind: "gauge", gauge: new(Gauge)}).gauge
}

// FloatCounter returns the named float-valued counter — a Gauge the caller
// only Adds to, exposed with TYPE counter — registering it on first use. It
// panics like Counter.
func (r *Registry) FloatCounter(name, help string) *Gauge {
	return r.register(&family{name: name, help: help, kind: "float counter", gauge: new(Gauge)}).gauge
}

// Histogram returns the named histogram over the given ascending upper
// bounds, registering it on first use (a later call's bounds are ignored).
// It panics like Counter.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	return r.register(&family{name: name, help: help, kind: "histogram", hist: h}).hist
}

// register adds f, or returns the family already registered under its name.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[f.name]; ok {
		if prev.kind != f.kind {
			panic("obs: metric " + f.name + " already registered as " + prev.kind)
		}
		return prev
	}
	if !validMetricName(f.name) {
		panic("obs: invalid metric name " + f.name)
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
	return f
}

// validMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
