package service

// metrics.go: the daemon's metric families, all on one obs.Registry (the
// repo's only metric implementation): the daemon's own counters, gauges and
// latency histograms first, then the solver-telemetry families fed from
// Result.Stats at every tick. /metrics writes this registry followed by the
// CDN tier's process-wide cdn.Telemetry.

import (
	"runtime"

	"repro/internal/obs"
)

// daemonMetrics holds typed handles into the daemon's registry, so the hot
// paths never look a family up by name.
type daemonMetrics struct {
	reg *obs.Registry

	ticks        *obs.Counter
	tickErrors   *obs.Counter
	bids         *obs.Counter
	grantsTotal  *obs.Counter
	rejectsTotal *obs.Counter
	joins        *obs.Counter
	leaves       *obs.Counter
	welfareTotal *obs.Gauge // float counter
	httpRequests *obs.Counter
	httpErrors   *obs.Counter

	// Degradation and load-shedding families (the robustness layer):
	// degraded slots fire per deadline-stopped solve, shed requests per 429.
	degradedSlots *obs.Counter
	shedRequests  *obs.Counter

	slot          *obs.Gauge
	peers         *obs.Gauge
	lastWelfare   *obs.Gauge
	lastGap       *obs.Gauge
	shards        *obs.Gauge
	overrunStreak *obs.Gauge

	solveSeconds *obs.Histogram
	httpSeconds  *obs.Histogram

	// Solver-internal telemetry, flushed from Result.Stats at every tick.
	solverBids          *obs.Counter
	solverIterations    *obs.Counter
	solverEvictions     *obs.Counter
	solverEpsilon       *obs.Gauge
	partitionMigrations *obs.Counter
}

// solveBuckets spans sub-millisecond shard solves to multi-second mega
// slots; httpBuckets spans LAN round trips to degraded-mode seconds.
var (
	solveBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	httpBuckets  = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
)

// newDaemonMetrics registers every family; registration order is exposition
// order.
func newDaemonMetrics() *daemonMetrics {
	r := obs.NewRegistry()
	return &daemonMetrics{
		reg:           r,
		ticks:         r.Counter("schedulerd_ticks_total", "Completed slot ticks."),
		tickErrors:    r.Counter("schedulerd_tick_errors_total", "Slot ticks that failed to solve."),
		bids:          r.Counter("schedulerd_bids_total", "Chunk bids accepted into the book."),
		grantsTotal:   r.Counter("schedulerd_grants_total", "Grants issued across all slots."),
		rejectsTotal:  r.Counter("schedulerd_bid_rejects_total", "Bids dropped at tick time (no live candidate uploader)."),
		joins:         r.Counter("schedulerd_joins_total", "Peer registrations (churn, arrival side)."),
		leaves:        r.Counter("schedulerd_leaves_total", "Peer departures (churn, departure side)."),
		welfareTotal:  r.FloatCounter("schedulerd_welfare_total", "Cumulative social welfare over all slots."),
		httpRequests:  r.Counter("schedulerd_http_requests_total", "HTTP API requests served."),
		httpErrors:    r.Counter("schedulerd_http_errors_total", "HTTP API requests answered with an error status."),
		degradedSlots: r.Counter("schedulerd_degraded_slots_total", "Slots whose solve the deadline stopped (served with their certified gap)."),
		shedRequests:  r.Counter("schedulerd_shed_requests_total", "Bid/offer submissions refused with 429 (book bound reached)."),
		slot:          r.Gauge("schedulerd_slot", "Current slot number."),
		peers:         r.Gauge("schedulerd_peers", "Registered peer population."),
		lastWelfare:   r.Gauge("schedulerd_slot_welfare", "Social welfare of the last solved slot."),
		lastGap:       r.Gauge("schedulerd_slot_duality_gap", "Certified duality gap of the last solved slot: dual bound minus welfare."),
		shards:        r.Gauge("schedulerd_shards", "Shard count of the last solved slot (0 for the monolithic solver)."),
		overrunStreak: r.Gauge("schedulerd_consecutive_overruns", "Current streak of consecutive deadline-stopped solves (alarm input)."),
		solveSeconds:  r.Histogram("schedulerd_solve_seconds", "Per-slot solve latency.", solveBuckets),
		httpSeconds:   r.Histogram("schedulerd_http_request_seconds", "HTTP API request latency.", httpBuckets),

		solverBids:          r.Counter("schedulerd_solver_bids_total", "Bids the auction solver processed across all slots."),
		solverIterations:    r.Counter("schedulerd_solver_iterations_total", "Solver bidding iterations across all slots."),
		solverEvictions:     r.Counter("schedulerd_solver_evictions_total", "Accepted bids later displaced by higher ones."),
		solverEpsilon:       r.Gauge("schedulerd_solver_epsilon", "Bid increment epsilon of the configured solver."),
		partitionMigrations: r.Counter("schedulerd_partition_migrations_total", "Uploader peers observed under a different shard than the slot before."),
	}
}

// observeSolve feeds the solver-telemetry families from one tick's
// Result.Stats — the slot-boundary flush of the solver's internal counters.
func (m *daemonMetrics) observeSolve(stats map[string]float64) {
	if stats == nil {
		return
	}
	m.solverBids.Add(uint64(stats["bids"]))
	m.solverIterations.Add(uint64(stats["iterations"]))
	m.solverEvictions.Add(uint64(stats["evictions"]))
	m.partitionMigrations.Add(uint64(stats["migrations"]))
}

// fillMemStats adds the runtime memory picture to a stats snapshot (the soak
// profile's leak signal).
func fillMemStats(s *StatsSnapshot) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.HeapAllocBytes = ms.HeapAlloc
	s.HeapObjects = ms.HeapObjects
	s.TotalAllocBytes = ms.TotalAlloc
	s.NumGC = ms.NumGC
	s.NumGoroutine = runtime.NumGoroutine()
}
