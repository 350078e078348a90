package main

import (
	"runtime"
	"time"
)

// window accumulates one timed measurement window: per-round samples plus
// the process counters at its two ends. Time the benchmark spends on its
// own bookkeeping and output checks inside the window is added to overhead
// and excluded from every time it reports.
type window struct {
	smp    *sampler
	startT time.Time
	endT   time.Time
	start  procSample
	end    procSample
	// overhead is benchmark-side time inside the window; excl holds the
	// CPU time and allocations of that work.
	overhead time.Duration
	excl     procSample

	roundMS  []float64 // one bidding round (sims) or one tick request (daemon)
	loopSecs []float64 // time per round (sims) or per closed-loop tick (daemon)
	requests []float64 // requests scheduled per round / bids sent per tick
	grants   float64
	welfare  float64
	heapPeak float64
	// counts sums named per-round tallies (solver stats, layer times);
	// series keeps named per-call samples (latencies).
	counts map[string]float64
	series map[string][]float64
}

func newWindow(smp *sampler) *window {
	return &window{smp: smp, counts: make(map[string]float64), series: make(map[string][]float64)}
}

func (w *window) sample(name string, v float64) { w.series[name] = append(w.series[name], v) }

func (w *window) add(name string, v float64) { w.counts[name] += v }

// exclude runs f as benchmark-side work: its time, CPU time and
// allocations are left out of the window's figures. It returns f's time.
func (w *window) exclude(f func()) time.Duration {
	a := w.smp.read()
	t := time.Now()
	f()
	d := time.Since(t)
	b := w.smp.read()
	w.overhead += d
	w.excl.cpuS += b.cpuS - a.cpuS
	w.excl.allocs += b.allocs - a.allocs
	w.excl.allocBytes += b.allocBytes - a.allocBytes
	return d
}

// begin opens the window from a collected heap, so windows start alike.
func (w *window) begin() {
	runtime.GC()
	w.start = w.smp.read()
	w.heapPeak = w.start.heapObjects
	w.startT = time.Now()
}

// finish closes the window.
func (w *window) finish() {
	w.endT = time.Now()
	w.end = w.smp.read()
}

// notePeak folds the current heap size into the window's peak.
func (w *window) notePeak() {
	if h := w.smp.heapBytes(); h > w.heapPeak {
		w.heapPeak = h
	}
}

func (w *window) totalRequests() float64 { return sum(w.requests) }

// throughputBlock is the number of consecutive rounds (or ticks) per
// throughput block.
const throughputBlock = 10

// throughput is requests per second as the median over blocks of rounds.
func (w *window) throughput() float64 {
	return blockRate(w.requests, w.loopSecs, throughputBlock)
}

// report fills the end-to-end metrics every workload shares, plus the
// runtime layer's.
func (w *window) report(o *outcome) error {
	reqs := w.totalRequests()
	rounds, err := summarize("round latency", w.roundMS, 950)
	if err != nil {
		return err
	}
	o.note("round latency ms: %v", rounds)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.set("requests_per_s", w.throughput())
	o.set("round_p50_ms", rounds.p50)
	o.set("round_p95_ms", rounds.pXX)
	o.set("cpu_s_per_mreq", ratio(w.end.cpuS-w.start.cpuS-w.excl.cpuS, reqs)*1e6)
	o.set("allocs_per_request", ratio(w.end.allocs-w.start.allocs-w.excl.allocs, reqs))
	o.set("alloc_bytes_per_request", ratio(w.end.allocBytes-w.start.allocBytes-w.excl.allocBytes, reqs))
	o.set("peak_rss_mb", rss)
	o.set("welfare_per_request", ratio(w.welfare, reqs))
	o.set("grant_share", ratio(w.grants, reqs))
	o.set("runtime.gc_cpu_share", ratio(w.end.gcCPU-w.start.gcCPU, w.end.busyCPU-w.start.busyCPU))
	o.set("runtime.heap_peak_mb", w.heapPeak/(1<<20))
	o.note("window: %d rounds, %.0f requests, %.3f s measured, %.3f s benchmark overhead excluded",
		len(w.roundMS), reqs, (w.endT.Sub(w.startT) - w.overhead).Seconds(), w.overhead.Seconds())
	return nil
}
