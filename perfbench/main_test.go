package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// manifest is the part of BENCHMARK.json the program must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTailLevel(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSummarizeNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 1..200, reversed: summarize must sort a copy
	}
	tl, err := summarize("x", xs, 950)
	if err != nil {
		t.Fatal(err)
	}
	if tl.n != 200 || tl.p50 != 100 || tl.pXX != 190 || tl.level != 950 {
		t.Errorf("summary %+v, want n=200 p50=100 p95=190 level=950", tl)
	}
	if !strings.Contains(tl.String(), "n=200") {
		t.Errorf("summary %q does not report the sample count", tl)
	}
	if xs[0] != 200 {
		t.Error("summarize reordered its input")
	}
	if _, err := summarize("x", xs[:199], 950); err == nil {
		t.Error("199 samples leave 9 beyond p95 and must be refused")
	}
}

func TestBlockRate(t *testing.T) {
	work := []float64{10, 10, 10, 10, 10, 10, 10}
	secs := []float64{1, 1, 1, 1, 5, 5, 1}
	// Blocks of two: 20/2, 20/2, 20/10; the leftover seventh sample is
	// dropped. The median ignores the slow block.
	if got := blockRate(work, secs, 2); got != 10 {
		t.Errorf("blockRate = %v, want 10", got)
	}
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	check := func(set string, specs []metricSpec, got map[string]string) {
		if len(specs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", set, len(specs), len(got))
		}
		for _, s := range specs {
			if unit, ok := got[s.name]; !ok {
				t.Errorf("%s: %s is missing from BENCHMARK.json", set, s.name)
			} else if unit != s.unit {
				t.Errorf("%s: %s has unit %q in the program, %q in BENCHMARK.json", set, s.name, s.unit, unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, x := range m.EndToEnd {
		e2e[x.Name] = x.Unit
	}
	layer := map[string]string{}
	for _, x := range m.PerLayer {
		layer[x.Name] = x.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
	var progWL []string
	for n := range workloads {
		progWL = append(progWL, n)
	}
	sort.Strings(progWL)
	fileWL := names(m.Workloads, func(w struct {
		Name string `json:"name"`
	}) string {
		return w.Name
	})
	if fmt.Sprint(progWL) != fmt.Sprint(fileWL) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", progWL, fileWL)
	}
}

// printedMetrics runs the benchmark and returns the metric names of its
// last output line.
func printedMetrics(t *testing.T, args ...string) []string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var got []string
	for n := range res.Metrics {
		got = append(got, n)
	}
	sort.Strings(got)
	return got
}

func TestPrintedMetricsMatchManifest(t *testing.T) {
	m := readManifest(t)
	wantE2E := names(m.EndToEnd, func(x struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) string {
		return x.Name
	})
	wantLayer := names(m.PerLayer, func(x struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) string {
		return x.Name
	})
	wls := []string{"daemon-rebid"}
	if !testing.Short() {
		wls = append(wls, "sim-cdn-cold", "sim-swarms-sharded")
	}
	for _, wl := range wls {
		got := printedMetrics(t, "--workload", wl, "--seed", "3", "--seconds", "0.1", "--trace", "0")
		if fmt.Sprint(got) != fmt.Sprint(wantE2E) {
			t.Errorf("%s --trace 0 printed %v, want %v", wl, got, wantE2E)
		}
		got = printedMetrics(t, "--workload", wl, "--seed", "3", "--seconds", "0.1", "--trace", "1")
		if fmt.Sprint(got) != fmt.Sprint(wantLayer) {
			t.Errorf("%s --trace 1 printed %v, want %v", wl, got, wantLayer)
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "daemon-rebid", "--seconds", "0"},
		{"--workload", "daemon-rebid", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// daemonStream returns the digest of every request the daemon workload's
// client sends in its setup under seed.
func daemonStream(t *testing.T, seed uint64) [sha256.Size]byte {
	t.Helper()
	r, err := newDaemonRun(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer r.d.Close()
	h := sha256.New()
	r.stream = h
	if err := r.join(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < daemonWarmupTicks; i++ {
		if err := r.tick(nil); err != nil {
			t.Fatal(err)
		}
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// simStream returns the digest of every instance the sim workload hands its
// scheduler in the first slots under seed.
func simStream(t *testing.T, wl simWorkload, seed uint64) [sha256.Size]byte {
	t.Helper()
	cfg, err := wl.config(seed)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingScheduler{inner: wl.scheduler(cfg), h: sha256.New(), stopAfter: 3 * cfg.BidRoundsPerSlot}
	if _, err := sim.Run(cfg, rec); !errors.Is(err, errStop) {
		t.Fatalf("sim run: %v", err)
	}
	var sum [sha256.Size]byte
	copy(sum[:], rec.h.Sum(nil))
	return sum
}

type recordingScheduler struct {
	inner     sched.Scheduler
	h         hash.Hash
	stopAfter int
	calls     int
}

func (r *recordingScheduler) Name() string { return r.inner.Name() }

func (r *recordingScheduler) Schedule(in *sched.Instance) (*sched.Result, error) {
	if r.calls == r.stopAfter {
		return nil, errStop
	}
	r.calls++
	fmt.Fprintf(r.h, "%v\n%v\n", in.Uploaders, in.Requests)
	return r.inner.Schedule(in)
}

func TestSeedFixesRequestStream(t *testing.T) {
	if a, b := daemonStream(t, 7), daemonStream(t, 7); a != b {
		t.Error("daemon-rebid: one seed gave two request streams")
	}
	if daemonStream(t, 7) == daemonStream(t, 8) {
		t.Error("daemon-rebid: two seeds gave one request stream")
	}
	for name, wl := range map[string]simWorkload{"sim-cdn-cold": cdnCold, "sim-swarms-sharded": swarmsSharded} {
		if a, b := simStream(t, wl, 7), simStream(t, wl, 7); a != b {
			t.Errorf("%s: one seed gave two instance streams", name)
		}
		if simStream(t, wl, 7) == simStream(t, wl, 8) {
			t.Errorf("%s: two seeds gave one instance stream", name)
		}
	}
}
