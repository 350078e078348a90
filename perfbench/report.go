package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metricSpec names one reported metric and its unit. The lists below match
// BENCHMARK.json's (a test keeps them equal).
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system sees; it is printed with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"cpu_s_per_mreq", "s"},
	{"allocs_per_request", "count"},
	{"alloc_bytes_per_request", "bytes"},
	{"peak_rss_mb", "MB"},
	{"welfare_per_request", "welfare"},
	{"grant_share", "share"},
}

// perLayer is what single layers do; it is printed with --trace 1. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricSpec{
	{"round_p95_ms", "ms"},
	{"sim.world_ms_per_round", "ms"},
	{"sim.refresh_ms_per_slot", "ms"},
	{"sim.build_ms_per_round", "ms"},
	{"sim.apply_ms_per_round", "ms"},
	{"sim.economics_ms_per_slot", "ms"},
	{"sched.call_ms_per_round", "ms"},
	{"sched.delta_rows_per_round", "count"},
	{"sched.identity_round_share", "share"},
	{"sched.carried_share", "share"},
	{"sched.delta_ops_per_request", "count"},
	{"core.bids_per_request", "count"},
	{"core.iterations_per_round", "count"},
	{"core.evictions_per_request", "count"},
	{"core.sweep_passes_per_round", "count"},
	{"core.cold_restarts", "count"},
	{"core.reserve_surrenders", "count"},
	{"cluster.shards_per_round", "count"},
	{"cluster.partition_incremental_share", "share"},
	{"cluster.migrations_per_round", "count"},
	{"cluster.max_shard_requests", "count"},
	{"cluster.partition_ms_per_round", "ms"},
	{"cluster.merge_ms_per_round", "ms"},
	{"cluster.shard_solve_ms_per_round", "ms"},
	{"cluster.shard_queue_wait_ms_per_round", "ms"},
	{"cluster.worker_busy_share", "share"},
	{"cdn.p2p_share", "share"},
	{"cdn.edge_hit_rate", "share"},
	{"cdn.origin_share", "share"},
	{"economics.settle_ms", "ms"},
	{"service.ingest_p50_ms", "ms"},
	{"service.ingest_p99_ms", "ms"},
	{"service.offer_p50_ms", "ms"},
	{"service.grants_p50_ms", "ms"},
	{"service.tick_solve_ms_p50", "ms"},
	{"service.tick_rest_ms_p50", "ms"},
	{"service.bid_ms_per_tick", "ms"},
	{"service.tick_ms_per_tick", "ms"},
	{"service.other_ms_per_tick", "ms"},
	{"service.rejected_share", "share"},
	{"service.shed_share", "share"},
	{"service.book_us_per_bid", "us"},
	{"service.decode_us_per_bid", "us"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.heap_peak_mb", "MB"},
	{"obs.tracing_overhead_share", "share"},
	{"failed_share", "share"},
}

// outcome is one workload run's measurements and verdict.
type outcome struct {
	attempted, failed int64
	values            map[string]float64 // every metric, both sets
	checkErrs         []error            // output checks that failed
	notes             []string           // diagnostics printed beside the result
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// zeroUnset reports 0 for every per-layer metric under the given prefixes
// that the workload did not measure: layers it does not exercise.
func (o *outcome) zeroUnset(prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if _, ok := o.values[m.name]; !ok && strings.HasPrefix(m.name, p) {
				o.values[m.name] = 0
			}
		}
	}
}

// fail records a failed output check; the run then exits non-zero.
func (o *outcome) fail(err error) { o.checkErrs = append(o.checkErrs, err) }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the diagnostics, a metric table and, as the last line, the
// JSON result carrying the metric set the trace flag selects.
func (o *outcome) write(w io.Writer, traced bool) error {
	for _, n := range o.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, err := range o.checkErrs {
		fmt.Fprintln(w, "# CHECK FAILED: "+err.Error())
	}
	set := endToEnd
	if traced {
		set = perLayer
	}
	res := jsonResult{
		Correct:   len(o.checkErrs) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(set)),
	}
	for _, m := range set {
		v, ok := o.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "# %-40s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
