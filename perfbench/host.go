package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// procSample is the process's resource counters at one instant. Deltas
// between two samples give a window's CPU time, allocations and GC share.
type procSample struct {
	cpuS        float64 // user + system CPU seconds (getrusage)
	allocs      float64 // cumulative heap allocations (objects)
	allocBytes  float64 // cumulative heap allocations (bytes)
	gcCPU       float64 // runtime estimate of GC CPU seconds
	busyCPU     float64 // runtime estimate of non-idle CPU seconds
	heapObjects float64 // live plus unswept heap object bytes
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

// sampler reads procSamples through one reused runtime/metrics buffer.
type sampler struct{ buf []metrics.Sample }

func newSampler() *sampler {
	s := &sampler{buf: make([]metrics.Sample, len(procMetricNames))}
	for i, n := range procMetricNames {
		s.buf[i].Name = n
	}
	return s
}

func value(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

func (s *sampler) read() procSample {
	metrics.Read(s.buf)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		cpuS:        tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		allocs:      value(s.buf[0].Value),
		allocBytes:  value(s.buf[1].Value),
		gcCPU:       value(s.buf[2].Value),
		busyCPU:     value(s.buf[3].Value) - value(s.buf[4].Value),
		heapObjects: value(s.buf[5].Value),
	}
}

// heapBytes reads only the live heap gauge (for per-round peak tracking).
func (s *sampler) heapBytes() float64 {
	metrics.Read(s.buf[5:])
	return value(s.buf[5].Value)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stealSeconds reads the host-wide CPU time stolen by the hypervisor from
// /proc/stat (0 when the kernel does not report it).
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, _ := strconv.ParseFloat(fields[8], 64)
			return ticks / 100 // USER_HZ
		}
	}
	return 0
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLine describes the host a run measured on. It is printed beside the
// result, never gated: a slow run is explained by it, not dropped.
func hostLine(stealS float64) string {
	return fmt.Sprintf("host: steal_s=%.2f gomaxprocs=%d nproc=%d go=%s cpu=%q",
		stealS, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())
}
