package service

// debug.go: the daemon's private debug surface, served on a dedicated
// listener (schedulerd -debug-addr) so profiling and trace capture stay off
// the public API port. It carries the standard net/http/pprof handlers plus
// /debug/trace, which installs an obs trace for N slots and streams the
// captured Chrome trace-event JSON back.

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
)

// debug-capture bounds: a capture cannot be asked to outlive the process
// watchdog, and the per-track ring stays modest — the endpoint is for live
// inspection, not archival.
const (
	maxCaptureSlots       = 10_000
	captureRingSpans      = 1 << 15
	defaultCaptureTimeout = 60 * time.Second
	maxCaptureTimeout     = 10 * time.Minute
)

// DebugHandler returns the debug mux: /debug/pprof/* (index, cmdline,
// profile, symbol, trace, plus every runtime profile via the index) and
// /debug/trace?slots=N[&timeout=30s].
func (d *Daemon) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", d.handleTraceCapture)
	return mux
}

// handleTraceCapture serves GET /debug/trace?slots=N: install a fresh obs
// trace, wait until the daemon completes N more ticks (or the timeout
// lapses — whatever was captured by then is still returned), uninstall, and
// stream the trace-event JSON. Concurrent captures are refused with 409 by
// the obs single-active-trace rule.
func (d *Daemon) handleTraceCapture(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	slots := int64(1)
	if q := r.URL.Query().Get("slots"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n <= 0 || n > maxCaptureSlots {
			http.Error(w, fmt.Sprintf("slots must be in [1, %d]", maxCaptureSlots), http.StatusBadRequest)
			return
		}
		slots = n
	}
	timeout := defaultCaptureTimeout
	if q := r.URL.Query().Get("timeout"); q != "" {
		t, err := time.ParseDuration(q)
		if err != nil || t <= 0 || t > maxCaptureTimeout {
			http.Error(w, fmt.Sprintf("timeout must be a duration in (0, %v]", maxCaptureTimeout), http.StatusBadRequest)
			return
		}
		timeout = t
	}

	tr := obs.NewTrace("schedulerd", captureRingSpans)
	if err := obs.Install(tr); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	target := d.tickSeq.Load() + slots
	deadline := time.Now().Add(timeout)
	// Poll for slot progress: the capture endpoint is a debug surface, so a
	// 10ms poll beats threading a condition variable through the tick path.
	for d.tickSeq.Load() < target && time.Now().Before(deadline) {
		select {
		case <-r.Context().Done():
			obs.Uninstall()
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	d.endCapture()

	w.Header().Set("Content-Type", "application/json")
	if err := tr.WriteJSON(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// endCapture uninstalls the active trace and returns once nothing can still
// record into it. A tick that began before Uninstall may still be recording
// into the single-owner daemon track; ticks hold d.mu throughout, so taking
// it waits that tick out. A solve that overran its deadline records its
// spans off-lock after its tick returned, so the capture also waits for it
// to return, without taking the lock ticks need and without claiming its
// result: the deadline path is unchanged.
func (d *Daemon) endCapture() {
	obs.Uninstall()
	d.mu.Lock()
	inflight := d.inflight
	d.mu.Unlock()
	if inflight != nil {
		<-inflight
	}
}
