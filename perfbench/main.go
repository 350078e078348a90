// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process, measures it for a fixed time after a warm-up,
// checks the program's outputs, and prints every metric with its unit; the
// last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// measures an untraced window and then a traced one, and reports the
// per-layer set. Each layer is timed from outside through its public calls;
// the traced window adds the spans the program already emits. The metric
// names, units and workloads are listed in BENCHMARK.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sim-cdn-cold --seed 1 --seconds 10 --trace 0
//
// The exit code is non-zero when an output check fails (grant validation,
// the Theorem 2 welfare bound, or a failed daemon tick).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

type options struct {
	seed     uint64
	duration time.Duration
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"sim-cdn-cold":       func(o options) (*outcome, error) { return runSim(cdnCold, o) },
	"sim-swarms-sharded": func(o options) (*outcome, error) { return runSim(swarmsSharded, o) },
	"daemon-rebid":       runDaemon,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = report the per-layer metrics from an extra traced window")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	steal0 := stealSeconds()
	o, err := runner(options{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	o.note("%s", hostLine(stealSeconds()-steal0))
	if o.attempted > 0 {
		o.set("failed_share", float64(o.failed)/float64(o.attempted))
	}
	if err := o.write(stdout, *trace == 1); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if len(o.checkErrs) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
