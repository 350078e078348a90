package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// span is one completed span of a captured trace, times in microseconds
// since the trace epoch.
type span struct {
	track   string
	name    string
	ts, dur float64
	args    map[string]float64
}

// traceEvent is the Chrome trace-event shape obs.Trace.WriteJSON emits.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// spansIn exports the trace through its public writer and returns the
// spans that lie wholly inside [from, to).
func spansIn(tr *obs.Trace, epoch, from, to time.Time) ([]span, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}
	if d := tr.Dropped(); d > 0 {
		return nil, fmt.Errorf("trace rings overflowed: %d spans dropped", d)
	}
	lo := float64(from.Sub(epoch)) / 1e3
	hi := float64(to.Sub(epoch)) / 1e3
	tracks := map[int]string{}
	var out []span
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Tid], _ = ev.Args["name"].(string)
			}
		case "X":
			if ev.Ts < lo || ev.Ts+ev.Dur > hi {
				continue
			}
			s := span{track: tracks[ev.Tid], name: ev.Name, ts: ev.Ts, dur: ev.Dur}
			if len(ev.Args) > 0 {
				s.args = make(map[string]float64, len(ev.Args))
				for k, v := range ev.Args {
					if f, ok := v.(float64); ok {
						s.args[k] = f
					}
				}
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// spanMS sums the durations (ms) of the spans named name on track.
func spanMS(spans []span, track, name string) float64 {
	t := 0.0
	for _, s := range spans {
		if s.track == track && s.name == name {
			t += s.dur / 1e3
		}
	}
	return t
}

// reportSimSpans fills the traced per-layer metrics of the sim workloads:
// the sim loop's phases and the orchestrator's partition, merge and shard
// solves, all aggregated from the spans the program already emits.
func reportSimSpans(o *outcome, tr *obs.Trace, epoch time.Time, w *window, cfg sim.Config) error {
	spans, err := spansIn(tr, epoch, w.startT, w.endT)
	if err != nil {
		return err
	}
	rounds := float64(len(w.roundMS))
	slots := rounds / float64(cfg.BidRoundsPerSlot)
	o.set("sim.refresh_ms_per_slot", spanMS(spans, "sim", "refresh")/slots)
	o.set("sim.build_ms_per_round", spanMS(spans, "sim", "build")/rounds)
	o.set("sim.apply_ms_per_round", spanMS(spans, "sim", "apply")/rounds)
	o.set("sim.economics_ms_per_slot", spanMS(spans, "sim", "economics")/slots)
	o.set("cluster.partition_ms_per_round", spanMS(spans, "cluster", "partition")/rounds)
	o.set("cluster.merge_ms_per_round", spanMS(spans, "cluster", "merge")/rounds)

	// Shard solves run on the worker tracks between a round's partition and
	// its merge; the workers' busy share is their solve time over that
	// phase's wall time times the number of workers that ran.
	var solveMS, waitMS, phaseMS float64
	workers := map[string]bool{}
	var partEnd float64
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.track, "shard-worker-") && s.name == "shard-solve":
			solveMS += s.dur / 1e3
			waitMS += s.args["queue_wait_us"] / 1e3
			workers[s.track] = true
		case s.track == "cluster" && s.name == "partition":
			partEnd = s.ts + s.dur
		case s.track == "cluster" && s.name == "merge" && partEnd > 0:
			phaseMS += (s.ts - partEnd) / 1e3
			partEnd = 0
		}
	}
	o.set("cluster.shard_solve_ms_per_round", solveMS/rounds)
	o.set("cluster.shard_queue_wait_ms_per_round", waitMS/rounds)
	o.set("cluster.worker_busy_share", ratio(solveMS, phaseMS*float64(len(workers))))
	return nil
}
