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
//	schedulerd -solve-deadline 100ms -greedy-after 3   # degradation ladder
//	schedulerd -max-pending-bids 4096             # shed excess load as 429s
//	schedulerd -snapshot-every 10                 # periodic crash-safe snapshots
//
// SIGTERM or SIGINT drains gracefully: the slot clock stops, outstanding
// bids solve in one final slot, the state snapshot is written (when
// configured), and in-flight HTTP requests finish within -drain-timeout.
//
// Degradation under overload is a ladder, not a cliff: a slot whose solve
// overruns -solve-deadline carries the previous grants forward; after
// -greedy-after consecutive overruns the daemon escalates to the bounded
// greedy fallback until the overrunning solve returns. -max-pending-bids /
// -max-pending-offers bound the books, shedding excess submissions as
// 429 + Retry-After. -kill-after-ticks arms the fault-injection kill point
// for crash-recovery drills: the process exits WITHOUT draining, and the
// next start restores from the last -snapshot-every periodic snapshot.
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

	"repro/internal/fault"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "schedulerd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until the context is cancelled by a
// signal (or by the test harness through stop). ready, when non-nil,
// receives the bound address once the listener is up.
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("schedulerd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8844", "listen address")
		slot          = fs.Duration("slot", time.Second, "slot clock period (0 = manual ticks via POST /v1/tick)")
		epsilon       = fs.Float64("epsilon", 0.01, "auction bid increment (epsilon)")
		sharded       = fs.Bool("sharded", false, "use the sharded swarm orchestrator")
		shardWorkers  = fs.Int("shard-workers", 0, "concurrent shard solves (0 = sequential)")
		maxShardPeers = fs.Int("max-shard-peers", 0, "refine shards above this peer count (0 = exact partition)")
		snapshot      = fs.String("snapshot", "", "state snapshot path (drain writes, start restores)")
		snapshotEvery = fs.Int("snapshot-every", 0, "also write the snapshot every N ticks (0 = only on drain)")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
		debugAddr     = fs.String("debug-addr", "", "debug listen address for pprof and /debug/trace (empty = disabled; keep off the public port)")

		solveDeadline   = fs.Duration("solve-deadline", 0, "per-slot solve budget; an overrunning slot carries the previous grants (0 = wait forever)")
		greedyAfter     = fs.Int("greedy-after", 0, "escalate to the greedy fallback after this many consecutive overruns (0 = carry only)")
		maxPendingBids  = fs.Int("max-pending-bids", 0, "shed bid batches once this many bids are queued for the slot (0 = unbounded)")
		maxPendingOffer = fs.Int("max-pending-offers", 0, "shed offers once this many are queued for the slot (0 = unbounded)")
		killAfterTicks  = fs.Int("kill-after-ticks", 0, "fault injection: exit without draining after N ticks (crash-recovery drills; 0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := service.New(service.Options{
		Epsilon:          *epsilon,
		SlotInterval:     *slot,
		Sharded:          *sharded,
		ShardWorkers:     *shardWorkers,
		MaxShardPeers:    *maxShardPeers,
		SnapshotPath:     *snapshot,
		SnapshotEvery:    *snapshotEvery,
		SolveDeadline:    *solveDeadline,
		GreedyAfter:      *greedyAfter,
		MaxPendingBids:   *maxPendingBids,
		MaxPendingOffers: *maxPendingOffer,
		Fault:            fault.Spec{KillAfterTicks: *killAfterTicks},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		d.Close()
		return err
	}
	srv := &http.Server{Handler: d.Handler()}

	// The debug surface (pprof + trace capture) binds its own listener so
	// profiling never rides the public API port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
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
		d.SchedulerName(), *slot, ln.Addr())
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
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *drainTimeout)
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
