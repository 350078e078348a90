package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/isp"
	"repro/internal/obs"
)

// newTestDaemon returns a manually ticked daemon (no wall clock).
func newTestDaemon(t *testing.T) *Daemon {
	t.Helper()
	opts := DefaultOptions()
	opts.SlotInterval = 0
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// seedBook registers a tiny market so ticks have something to solve.
func seedBook(t *testing.T, d *Daemon) {
	t.Helper()
	for p := isp.PeerID(0); p < 4; p++ {
		if err := d.Join(p, isp.ID(int(p)%2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Offer(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Offer(1, 2); err != nil {
		t.Fatal(err)
	}
}

// TestDebugPprofHeap is the satellite pin: the debug listener serves a
// valid heap profile. A gzip stream with records is proof enough of a
// well-formed pprof payload without depending on the profile package.
func TestDebugPprofHeap(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.DebugHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/heap: status %d", resp.StatusCode)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("heap profile is not gzip (pprof proto is gzip-wrapped): %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress heap profile: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("heap profile is empty")
	}
}

// TestDebugPprofIndex checks the profile index renders (covers the other
// pprof routes' registration).
func TestDebugPprofIndex(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.DebugHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d body %q", resp.StatusCode, string(body[:min(len(body), 200)]))
	}
}

// TestDebugTraceCapture drives /debug/trace?slots=N against manual ticks
// and checks the streamed JSON carries the daemon's tick spans.
func TestDebugTraceCapture(t *testing.T) {
	obs.Uninstall()
	t.Cleanup(func() { obs.Uninstall() })
	d := newTestDaemon(t)
	seedBook(t, d)
	srv := httptest.NewServer(d.DebugHandler())
	defer srv.Close()

	// Tick continuously in the background until the capture returns; the
	// capture waits for 2 completed slots.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			seedBook(t, d)
			if _, err := d.Tick(); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
		}
	}()

	resp, err := http.Get(srv.URL + "/debug/trace?slots=2&timeout=30s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	close(stop)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: status %d body %s", resp.StatusCode, body)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("captured trace is not valid JSON: %v\n%s", err, body)
	}
	ticks := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "tick" {
			ticks++
		}
	}
	if ticks < 2 {
		t.Fatalf("captured %d tick spans, want >= 2", ticks)
	}
	if obs.Active() != nil {
		t.Fatal("capture endpoint left a trace installed")
	}
}

// TestDebugTraceRejectsBadParams covers the input validation.
func TestDebugTraceRejectsBadParams(t *testing.T) {
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.DebugHandler())
	defer srv.Close()
	for _, q := range []string{"?slots=0", "?slots=-3", "?slots=abc", "?slots=1&timeout=bogus", "?slots=1&timeout=11m"} {
		resp, err := http.Get(srv.URL + "/debug/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /debug/trace%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestDebugTraceConflict pins the single-capture rule: while one capture is
// live, a second gets 409 and the first still completes.
func TestDebugTraceConflict(t *testing.T) {
	obs.Uninstall()
	t.Cleanup(func() { obs.Uninstall() })
	d := newTestDaemon(t)
	srv := httptest.NewServer(d.DebugHandler())
	defer srv.Close()

	// Occupy the trace slot directly — simpler and less racy than timing
	// two HTTP captures against each other.
	if err := obs.Install(obs.NewTrace("occupant", 16)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/debug/trace?slots=1&timeout=1s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent capture: status %d, want 409", resp.StatusCode)
	}
}

// TestTraceCaptureAwaitsOverrunSolve: under a solve deadline, an overrunning
// sharded solve records its cluster and shard spans off-lock, after its tick
// has returned. Ending a capture must wait for that solve, or the export
// reads tracks it is still writing — a data race under -race.
func TestTraceCaptureAwaitsOverrunSolve(t *testing.T) {
	obs.Uninstall()
	t.Cleanup(func() { obs.Uninstall() })
	d := manual(t, Options{
		Epsilon:       0.01,
		Sharded:       true,
		ShardWorkers:  2,
		SolveDeadline: 5 * time.Millisecond,
		Fault:         fault.Spec{SolveDelay: 20 * time.Millisecond, SolveDelayEveryN: 2},
	})
	tr := obs.NewTrace("overrun", 1024)
	if err := obs.Install(tr); err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 2; tick++ {
		seedBooks(t, d)
		res, err := d.Tick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if res.Degraded != (tick == 2) {
			t.Fatalf("tick %d degraded = %v; only the delayed solve #2 should overrun", tick, res.Degraded)
		}
	}
	// Let the overrunning solve wake and record while the trace is still
	// installed; its result stays unconsumed, as no tick follows. This sleeps
	// rather than waits on the solve: any synchronization with it would order
	// its span writes before the export and hide the race under test.
	time.Sleep(200 * time.Millisecond)
	d.endCapture()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"name":"merge"`)); n != 2 {
		t.Fatalf("captured %d merge spans, want 2 (one per sharded solve)", n)
	}
}
