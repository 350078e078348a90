// Command schedulerd runs the live scheduler daemon: a kept cold auction
// (or the sharded orchestrator's cold shards) behind an HTTP/JSON API.
// Peers register, post bandwidth offers and chunk bids, and poll their
// grants; slots tick on a wall clock, each solving its drained books cold.
//
//	schedulerd                                    # 1s slots on 127.0.0.1:8844
//	schedulerd -addr :9000 -slot 500ms            # faster clock, all interfaces
//	schedulerd -slot 0                            # manual slots (POST /v1/tick)
//	schedulerd -sharded -shard-workers 4          # sharded swarm orchestrator
//	schedulerd -snapshot /var/lib/schedulerd.json # drain/restore state image
//	schedulerd -debug-addr 127.0.0.1:8845         # pprof + /debug/trace listener
//	schedulerd -solve-deadline 100ms              # stop late solves, with a gap
//	schedulerd -max-pending-bids 4096             # shed excess load as 429s
//	schedulerd -snapshot-every 10                 # periodic crash-safe snapshots
//
// SIGTERM or SIGINT drains gracefully: the slot clock stops, outstanding
// bids solve in one final slot, the state snapshot is written (when
// configured), and in-flight HTTP requests finish within -drain-timeout.
//
// Degradation under overload keeps its certificate: a slot whose solve is
// still bidding at -solve-deadline stops there, fills spare capacity and
// serves that assignment with its duality gap, marked degraded; nothing of
// the solve outlives its tick. -max-pending-bids / -max-pending-offers
// bound the books, shedding excess submissions as 429 + Retry-After.
// -kill-after-ticks arms the fault-injection kill point for crash-recovery
// drills: the process exits WITHOUT draining, and the next start restores
// from the last -snapshot-every periodic snapshot.
//
// Observability: GET /metrics (Prometheus text format), /v1/stats (JSON),
// /healthz; with -debug-addr, a private listener adds net/http/pprof and
// /debug/trace?slots=N (capture N slots, stream Chrome trace-event JSON).
// See docs/OPERATIONS.md for the full API and metric reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "schedulerd:", err)
		os.Exit(1)
	}
}

// options is schedulerd's parsed command line: the daemon's options plus
// the process-level listeners and shutdown grace.
type options struct {
	service.Options
	addr, debugAddr string
	drainTimeout    time.Duration
}

// newFlagSet declares schedulerd's flags over o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("schedulerd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8844", "listen address")
	fs.DurationVar(&o.SlotInterval, "slot", time.Second, "slot clock period (0 = manual ticks via POST /v1/tick)")
	fs.Float64Var(&o.Epsilon, "epsilon", 0.01, "auction bid increment (epsilon)")
	fs.BoolVar(&o.Sharded, "sharded", false, "use the sharded swarm orchestrator")
	fs.IntVar(&o.ShardWorkers, "shard-workers", 0, "concurrent shard solves (0 = sequential)")
	fs.StringVar(&o.SnapshotPath, "snapshot", "", "state snapshot path (drain writes, start restores)")
	fs.IntVar(&o.SnapshotEvery, "snapshot-every", 0, "also write the snapshot every N ticks (0 = only on drain)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "debug listen address for pprof and /debug/trace (empty = disabled; keep off the public port)")

	fs.DurationVar(&o.SolveDeadline, "solve-deadline", 0, "per-slot budget; a solve still bidding at it stops and serves its assignment with a certified gap (0 = wait forever)")
	fs.IntVar(&o.MaxPendingBids, "max-pending-bids", 0, "shed bid batches once this many bids are queued for the slot (0 = unbounded)")
	fs.IntVar(&o.MaxPendingOffers, "max-pending-offers", 0, "shed offers once this many are queued for the slot (0 = unbounded)")
	fs.IntVar(&o.Fault.KillAfterTicks, "kill-after-ticks", 0, "fault injection: exit without draining after N ticks (crash-recovery drills; 0 = off)")
	return fs
}

// run starts the daemon and blocks until the context is cancelled by a
// signal (or by the test harness through stop). ready, when non-nil,
// receives the bound address once the listener is up.
func run(args []string, ready chan<- string) error {
	var o options
	if err := newFlagSet(&o).Parse(args); err != nil {
		return err
	}

	d, err := service.New(o.Options)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		d.Close()
		return err
	}
	srv := &http.Server{Handler: d.Handler()}

	// The debug surface (pprof + trace capture) binds its own listener so
	// profiling never rides the public API port.
	var debugSrv *http.Server
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			ln.Close()
			d.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: d.DebugHandler()}
		fmt.Printf("schedulerd: debug listener (pprof, /debug/trace) on %s\n", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "schedulerd: debug listener:", err)
			}
		}()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	fmt.Printf("schedulerd: %s solver, %v slots, listening on %s\n",
		d.SchedulerName(), o.SlotInterval, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		d.Close()
		return err
	case <-d.KillPoint():
		// Armed kill point tripped: a SIGKILL-equivalent for recovery drills.
		// No drain, no final snapshot — the next start restores from whatever
		// the last periodic snapshot captured.
		fmt.Println("schedulerd: kill point tripped, exiting without drain")
		_ = srv.Close()
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		<-serveErr
		d.Close()
		return nil
	case <-ctx.Done():
	}

	// Graceful drain: final solve + snapshot first (the books stop moving
	// once the clock is down), then let in-flight requests finish.
	fmt.Println("schedulerd: draining")
	drainErr := d.Drain()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer shutCancel()
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutCtx)
	}
	if err := srv.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && drainErr == nil {
		drainErr = err
	}
	st := d.Stats()
	fmt.Printf("schedulerd: drained after %d slots, %d grants, welfare %.3f\n",
		st.Slot, st.Totals.Grants, st.Totals.Welfare)
	return drainErr
}
