package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
)

// drainActive guarantees a test starts and ends with tracing disabled even
// if an earlier test failed mid-capture.
func drainActive(t *testing.T) {
	t.Helper()
	Uninstall()
	t.Cleanup(func() { Uninstall() })
}

func TestInstallConflict(t *testing.T) {
	drainActive(t)
	tr := NewTrace("test", 16)
	if err := Install(tr); err != nil {
		t.Fatalf("first install: %v", err)
	}
	if err := Install(NewTrace("other", 16)); err == nil {
		t.Fatal("second install should fail while a trace is active")
	}
	if got := Uninstall(); got != tr {
		t.Fatalf("uninstall returned %p, want %p", got, tr)
	}
	if Active() != nil {
		t.Fatal("trace still active after uninstall")
	}
	if err := Install(NewTrace("again", 16)); err != nil {
		t.Fatalf("reinstall after uninstall: %v", err)
	}
}

func TestInstallNil(t *testing.T) {
	drainActive(t)
	if err := Install(nil); err == nil {
		t.Fatal("installing a nil trace should fail")
	}
}

func TestDisabledPathIsInert(t *testing.T) {
	drainActive(t)
	tk := TrackFor("sim")
	if tk != nil {
		t.Fatal("TrackFor should return nil with no active trace")
	}
	sp := tk.Begin("slot")
	sp.Arg("round", 1)
	sp.End() // must not panic
	if tk.Name() != "" {
		t.Fatalf("nil track name = %q, want empty", tk.Name())
	}
	if SharedTrackFor("http") != nil {
		t.Fatal("SharedTrackFor should return nil with no active trace")
	}
}

func TestSpanRecordingAndJSONExport(t *testing.T) {
	drainActive(t)
	tr := NewTrace("unit", 64)
	if err := Install(tr); err != nil {
		t.Fatal(err)
	}

	sim := TrackFor("sim")
	outer := sim.Begin("slot")
	inner := sim.Begin("solve")
	inner.Arg("bids", 42).Arg("iterations", 7)
	inner.End()
	outer.Arg("slot", 3)
	outer.End()

	w := TrackFor("shard-worker-0")
	sp := w.Begin("shard-solve")
	sp.Arg("requests", 10)
	sp.End()

	Uninstall()

	if got := tr.SpanCount(); got != 3 {
		t.Fatalf("SpanCount = %d, want 3", got)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}

	var threadNames []string
	spansByName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threadNames = append(threadNames, ev.Args["name"].(string))
			}
		case "X":
			spansByName[ev.Name]++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("span %q has negative ts/dur: %+v", ev.Name, ev)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if want := []string{"sim", "shard-worker-0"}; strings.Join(threadNames, ",") != strings.Join(want, ",") {
		t.Fatalf("thread names = %v, want %v", threadNames, want)
	}
	for _, name := range []string{"slot", "solve", "shard-solve"} {
		if spansByName[name] != 1 {
			t.Fatalf("span %q recorded %d times, want 1", name, spansByName[name])
		}
	}

	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "solve" {
			if ev.Args["bids"].(float64) != 42 || ev.Args["iterations"].(float64) != 7 {
				t.Fatalf("solve args = %v", ev.Args)
			}
		}
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	drainActive(t)
	tr := NewTrace("unit", 4)
	tk := tr.Track("t")
	for i := 0; i < 10; i++ {
		sp := tk.Begin("s")
		sp.Arg("i", float64(i))
		sp.End()
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	recs := tk.ordered()
	if len(recs) != 4 {
		t.Fatalf("retained %d spans, want 4", len(recs))
	}
	for idx, rec := range recs {
		if want := float64(6 + idx); rec.args[0].Val != want {
			t.Fatalf("ring slot %d holds i=%v, want %v", idx, rec.args[0].Val, want)
		}
	}
}

func TestArgOverflowDropped(t *testing.T) {
	drainActive(t)
	tr := NewTrace("unit", 4)
	tk := tr.Track("t")
	sp := tk.Begin("s")
	for i := 0; i < maxSpanArgs+5; i++ {
		sp.Arg("k", float64(i))
	}
	sp.End()
	recs := tk.ordered()
	if recs[0].nargs != maxSpanArgs {
		t.Fatalf("nargs = %d, want %d", recs[0].nargs, maxSpanArgs)
	}
}

func TestSharedTrackConcurrent(t *testing.T) {
	drainActive(t)
	tr := NewTrace("unit", 1024)
	tk := tr.SharedTrack("http")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tk.Begin("req")
				sp.Arg("n", float64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.SpanCount(); got != 800 {
		t.Fatalf("SpanCount = %d, want 800", got)
	}
}

func TestTrackIdempotentByName(t *testing.T) {
	drainActive(t)
	tr := NewTrace("unit", 16)
	if tr.Track("a") != tr.Track("a") {
		t.Fatal("Track should return the same track for the same name")
	}
	if len(tr.snapshotTracks()) != 1 {
		t.Fatal("duplicate track registered")
	}
}

func TestSkeletonShape(t *testing.T) {
	drainActive(t)
	tr := NewTrace("unit", 16)
	tk := tr.Track("sim")
	sp := tk.Begin("slot")
	sp.Arg("round", 0)
	sp.End()
	got := tr.Skeleton()
	if len(got) != 1 || got[0] != "sim/slot?round" {
		t.Fatalf("Skeleton = %v", got)
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("solver_bids_total", "Bids placed.")
	g := r.Gauge("solver_epsilon", "Final epsilon.")
	c.Add(3)
	c.Add(2)
	g.Set(0.125)

	if r.Counter("solver_bids_total", "dup") != c {
		t.Fatal("Counter should be idempotent by name")
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP solver_bids_total Bids placed.\n",
		"# TYPE solver_bids_total counter\n",
		"solver_bids_total 5\n",
		"# TYPE solver_epsilon gauge\n",
		"solver_epsilon 0.125\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lives", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("registering %q should panic", bad)
				}
			}()
			r.Counter(bad, "x")
		}()
	}
	r.Counter("ok_name", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-registering a counter as a gauge should panic")
			}
		}()
		r.Gauge("ok_name", "x")
	}()
}

func TestGaugeAddAndNilMetrics(t *testing.T) {
	var c *Counter
	var g *Gauge
	c.Add(1) // must not panic
	g.Set(1)
	g.Add(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics should read zero")
	}
	r := NewRegistry()
	g2 := r.Gauge("g", "x")
	g2.Set(1.5)
	g2.Add(0.25)
	if g2.Value() != 1.75 {
		t.Fatalf("gauge = %v, want 1.75", g2.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.5, 1, 2.5})
	if r.Histogram("lat_seconds", "dup", nil) != h {
		t.Fatal("Histogram should be idempotent by name")
	}
	// 1 and 2.5 sit exactly on bounds: le is inclusive. 7 lands in +Inf only.
	for _, v := range []float64{0.25, 1, 1, 2.5, 7} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP lat_seconds Latency.\n" +
		"# TYPE lat_seconds histogram\n" +
		"lat_seconds_bucket{le=\"0.5\"} 1\n" +
		"lat_seconds_bucket{le=\"1\"} 3\n" +
		"lat_seconds_bucket{le=\"2.5\"} 4\n" +
		"lat_seconds_bucket{le=\"+Inf\"} 5\n" +
		"lat_seconds_sum 11.75\n" +
		"lat_seconds_count 5\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "x", []float64{1, 2})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w % 3)) // 0, 1 or 2: integral, so the sum is exact
				if i%100 == 0 {
					_ = r.WritePrometheus(io.Discard) // scrape while observing
				}
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// workers 0,3,6 observe 0; 1,4,7 observe 1; 2,5 observe 2.
	for _, want := range []string{
		`h_bucket{le="1"} 6000` + "\n",
		`h_bucket{le="+Inf"} 8000` + "\n",
		"h_sum 7000\n",
		"h_count 8000\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFloatCounterRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.FloatCounter("welfare_total", "Welfare.")
	if r.FloatCounter("welfare_total", "dup") != c {
		t.Fatal("FloatCounter should be idempotent by name")
	}
	c.Add(1.5)
	c.Add(0.25)
	if c.Value() != 1.75 {
		t.Fatalf("float counter = %v, want 1.75", c.Value())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP welfare_total Welfare.\n# TYPE welfare_total counter\nwelfare_total 1.75\n"
	if got := buf.String(); got != want {
		t.Fatalf("exposition = %q, want %q", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-registering a float counter as a gauge should panic")
			}
		}()
		r.Gauge("welfare_total", "x")
	}()
}

// TestObsDisabledZeroAllocs is the enforcement half of the CI pin: the
// disabled-tracer fast path must never allocate.
func TestObsDisabledZeroAllocs(t *testing.T) {
	drainActive(t)
	allocs := testing.AllocsPerRun(1000, func() {
		tk := TrackFor("sim")
		sp := tk.Begin("slot")
		sp.Arg("round", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkObsDisabled is pinned in CI: the no-trace fast path must stay at
// 0 allocs/op and a handful of ns/op.
func BenchmarkObsDisabled(b *testing.B) {
	Uninstall()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk := TrackFor("sim")
		sp := tk.Begin("slot")
		sp.Arg("round", float64(i))
		sp.End()
	}
}

// BenchmarkObsEnabled measures the recording path (ring append, no export).
func BenchmarkObsEnabled(b *testing.B) {
	Uninstall()
	tr := NewTrace("bench", 1<<12)
	if err := Install(tr); err != nil {
		b.Fatal(err)
	}
	defer Uninstall()
	tk := TrackFor("sim")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tk.Begin("slot")
		sp.Arg("round", float64(i))
		sp.End()
	}
}

// BenchmarkObsCounter measures the contended atomic counter bump.
func BenchmarkObsCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "x")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

// BenchmarkObsCounterDuringScrape bumps a counter from parallel goroutines
// while another goroutine renders the registry without pause: the standing
// /metrics scrape never blocks the bumps it reads.
func BenchmarkObsCounterDuringScrape(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "x")
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
				_ = r.WritePrometheus(io.Discard)
			}
		}
	}()
	defer func() { close(done); <-finished }()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

// BenchmarkObsHistogramObserve measures the contended histogram observation.
func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "x", []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}
