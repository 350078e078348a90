// Command p2psim is the evaluation driver: it runs registered scenarios —
// single runs, seed batches and parameter sweeps — and regenerates the
// paper's figures and ablations.
//
// Scenario engine (see internal/scenario and the README's catalog):
//
//	p2psim -list                                    # catalog of registered scenarios
//	p2psim -scenario quickstart -seed 7             # one run, metric table + chart
//	p2psim -scenario churn -solver locality         # same world, baseline solver
//	p2psim -scenario churn -solver auction-warm     # warm-started incremental auction
//	p2psim -scenario mega-swarm                     # 100k peers, sharded orchestrator
//	p2psim -scenario churn -solver auction-sharded -set shard-workers=4
//	p2psim -scenario quickstart -trace out.json     # Perfetto span capture of one run
//	p2psim -scenario vodstreaming -seeds 10 -workers 4 -csv out.csv
//	p2psim -scenario vodstreaming -seeds 5 -sweep "neighbors=5,15,30" -json out.json
//	p2psim -scenario churn -seeds 5 -sweep "warmstart=0,1" -csv warm.csv
//	p2psim -scenario mega-swarm -seeds 3 -sweep "shard-workers=1,2,4,8" -csv scale.csv
//
// -set overrides any sweep parameter (scenario.ApplyParam) with one value,
// for a single run or a whole batch: -set "locality=0.5;transit-cost=2".
//
// Inter-ISP economics (see internal/economics):
//
//	p2psim -scenario locality-sweep -isp-report       # settlement table + Pareto series
//	p2psim -scenario isp-peering -isp-report          # peering pairs settle at zero
//	p2psim -scenario churn -set locality=0.9          # ISP-biased neighbor selection
//	p2psim -scenario churn -set cross-cap=5           # hard cross-ISP neighbor cap
//	p2psim -scenario vodstreaming -cost-model tiered  # volume-discount transit pricing
//	p2psim -scenario locality-sweep -seeds 5 -sweep "locality=0,0.5,0.9" -csv loc.csv
//
// Strategic-peer behavior (see internal/behavior):
//
//	p2psim -scenario free-rider-sweep                 # preset: 30% free-riders
//	p2psim -scenario clique-attack                    # preset: 8-peer colluding clique
//	p2psim -scenario churn -set free-rider-frac=0.4   # any sim scenario, perturbed
//	p2psim -scenario churn -set shade-factor=0.5      # everyone understates its bids
//	p2psim -scenario churn -set throttle-cap=0.1      # ISP 0 shapes cross-ISP egress
//	p2psim -scenario free-rider-sweep -seeds 5 -sweep "free-rider-frac=0,0.2,0.4" -csv fr.csv
//
// Misbehaving runs also execute the honest control at the same seed and print
// the equilibrium-degradation report (welfare loss, transit delta, per-ISP
// settlement shifts).
//
// Paper reports (see internal/scenario/report.go):
//
//	p2psim -exp fig4 -scale full            # Fig. 4 at the paper's scale
//	p2psim -exp all -scale small            # every report, quickly
//	p2psim -exp fig3 -csv fig3.csv          # export the series as CSV
//
// The ablations are sweeps over presets:
//
//	p2psim -scenario assignment -sweep "epsilon=0,0.001,0.01,0.1,0.5,1"
//	p2psim -scenario vodstreaming -sweep "neighbors=5,10,20,30,45"
//	p2psim -scenario vodstreaming -sweep "seeds-per-video=1,2,3,5"
//
// Output: metric/summary tables, ASCII charts of the per-slot series, and —
// for reports — reading notes on what shape to expect against the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/economics"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/tracker"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2psim:", err)
		os.Exit(1)
	}
}

// profilingActive guards the profile-wrapping re-entry of run (the wrapped
// call re-parses the same args).
var profilingActive bool

// withProfiles brackets fn with the pprof collectors: a CPU profile over
// the whole run when cpuPath is set, and a heap snapshot on completion
// when memPath is set (after a GC, so the profile shows live memory, not
// collectible garbage) — `go tool pprof <binary|”> <path>` reads both.
// See docs/PERFORMANCE.md ("Profiling a run") for the workflow.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "memory profile written to %s\n", memPath)
	}
	return nil
}

// options holds every p2psim flag.
type options struct {
	exp, scale             string
	list                   bool
	name, solver           string
	costModel, set         string
	ispReport              bool
	seed                   uint64
	seeds, workers         int
	sweep                  string
	jsonPath, csvPath      string
	tracePath              string
	cpuProfile, memProfile string
	noChart                bool
	width, height          int
}

// newFlagSet declares p2psim's flags, bound to o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("p2psim", flag.ContinueOnError)
	fs.StringVar(&o.exp, "exp", "", "paper report id (fig2..fig6, engines, robust-loss, strategic, isp-matrix) or 'all'")
	fs.StringVar(&o.scale, "scale", "small", "report scale: small, medium, full")
	fs.StringVar(&o.csvPath, "csv", "", "write series (report/single run) or batch summaries to this CSV file")
	fs.BoolVar(&o.noChart, "nochart", false, "suppress ASCII charts")
	fs.IntVar(&o.width, "width", 72, "chart width")
	fs.IntVar(&o.height, "height", 14, "chart height")

	fs.BoolVar(&o.list, "list", false, "list registered scenarios and exit")
	fs.StringVar(&o.name, "scenario", "", "run the named scenario (see -list)")
	fs.StringVar(&o.solver, "solver", "", fmt.Sprintf("override the scenario's solver, one of %v", scenario.Solvers()))
	fs.StringVar(&o.costModel, "cost-model", "", "transit settlement model: flat, tiered or peering (unset keeps the scenario's model)")
	fs.StringVar(&o.set, "set", "", `override sweep parameters with one value each, e.g. "locality=0.5;transit-cost=2" or "shard-workers=4"`)
	fs.BoolVar(&o.ispReport, "isp-report", false, "print the inter-ISP economics report: per-ISP settlement table, ISP×ISP traffic matrix, and the welfare-vs-transit Pareto series against the baseline schedulers (single sim runs only)")
	fs.Uint64Var(&o.seed, "seed", 1, "base seed for scenario runs")
	fs.IntVar(&o.seeds, "seeds", 1, "number of consecutive seeds (>1 switches to the batch runner)")
	fs.IntVar(&o.workers, "workers", 1, "batch worker pool size")
	fs.StringVar(&o.sweep, "sweep", "", `parameter grid, e.g. "neighbors=5,15,30" or "peers=40,80;epsilon=0.01,0.1"`)
	fs.StringVar(&o.jsonPath, "json", "", "write the scenario run / batch result as JSON to this file")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile (post-GC, live objects) to this file at exit")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON capture of a single scenario run to this file (open in Perfetto or chrome://tracing)")
	return fs
}

func run(args []string) error {
	var o options
	if err := newFlagSet(&o).Parse(args); err != nil {
		return err
	}
	if (o.cpuProfile != "" || o.memProfile != "") && !profilingActive {
		profilingActive = true
		return withProfiles(o.cpuProfile, o.memProfile, func() error { return run(args) })
	}
	if (o.list || o.name != "") && o.exp != "" {
		return fmt.Errorf("-exp cannot be combined with -list/-scenario")
	}
	if o.tracePath != "" && o.name == "" {
		return fmt.Errorf("-trace requires -scenario (reports run many interleaved simulations)")
	}
	if o.list {
		return listScenarios(os.Stdout)
	}
	if o.name != "" {
		return runScenario(o)
	}
	if o.exp == "" {
		o.exp = "all"
	}
	scale, err := parseScale(o.scale)
	if err != nil {
		return err
	}
	ids, err := selectExperiments(o.exp)
	if err != nil {
		return err
	}
	if o.csvPath != "" && len(ids) > 1 {
		return fmt.Errorf("-csv requires a single experiment, got %d", len(ids))
	}
	for _, id := range ids {
		rep, err := repro.Experiment(id, scale)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := render(rep, o.noChart, o.width, o.height); err != nil {
			return err
		}
		if o.csvPath != "" {
			if err := writeCSV(o.csvPath, rep); err != nil {
				return err
			}
			fmt.Printf("series written to %s\n", o.csvPath)
		}
	}
	return nil
}

func parseScale(s string) (repro.Scale, error) {
	switch s {
	case "small":
		return repro.ScaleSmall, nil
	case "medium":
		return repro.ScaleMedium, nil
	case "full":
		return repro.ScaleFull, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want small, medium or full)", s)
	}
}

func selectExperiments(id string) ([]string, error) {
	if id != "all" {
		if _, ok := scenario.Reports()[id]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (have: %s)",
				id, strings.Join(sortedIDs(), ", "))
		}
		return []string{id}, nil
	}
	return sortedIDs(), nil
}

func sortedIDs() []string {
	ids := repro.ExperimentIDs()
	sort.Strings(ids)
	return ids
}

func render(rep *repro.Report, noChart bool, width, height int) error {
	fmt.Printf("\n=== %s: %s ===\n", rep.ID, rep.Title)
	if rep.Table != nil {
		printTable(rep.Table)
	}
	if !noChart && len(rep.Series) > 0 {
		if err := metrics.Chart(os.Stdout, width, height, rep.Series...); err != nil {
			return err
		}
	}
	if rep.Notes != "" {
		fmt.Printf("notes: %s\n", rep.Notes)
	}
	return nil
}

func printTable(t *scenario.Table) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
}

func writeCSV(path string, rep *repro.Report) error {
	if len(rep.Series) == 0 {
		return fmt.Errorf("experiment %s has no series to export", rep.ID)
	}
	return writeFile(path, func(f *os.File) error {
		return metrics.WriteCSV(f, rep.Series...)
	})
}

// listScenarios prints the registry catalog.
func listScenarios(w *os.File) error {
	specs := scenario.All()
	fmt.Fprintf(w, "%d registered scenarios:\n\n", len(specs))
	nameW, kindW, loadW, solverW := len("name"), len("kind"), len("workload"), len("solver")
	for _, s := range specs {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
		if len(s.Kind.String()) > kindW {
			kindW = len(s.Kind.String())
		}
		if len(s.Workload) > loadW {
			loadW = len(s.Workload)
		}
		if len(s.Solver) > solverW {
			solverW = len(s.Solver)
		}
	}
	fmt.Fprintf(w, "  %-*s  %-*s  %-*s  %-*s  %s\n", nameW, "name", kindW, "kind", loadW, "workload", solverW, "solver", "summary")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-*s  %-*s  %-*s  %-*s  %s\n",
			nameW, s.Name, kindW, s.Kind.String(), loadW, s.Workload, solverW, s.Solver, s.Summary)
	}
	fmt.Fprintln(w, "\nrun one with: p2psim -scenario <name> [-seed S] [-set \"key=v\"] [-seeds N -workers K] [-sweep \"param=v1,v2\"]")
	return nil
}

// runScenario executes a single run or a batch, per the flags.
func runScenario(o options) error {
	spec, ok := scenario.Get(o.name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (have: %s)", o.name, strings.Join(scenario.Names(), ", "))
	}
	if o.solver != "" {
		spec = spec.WithSolver(scenario.Solver(o.solver))
	}
	if o.costModel != "" {
		spec.Transit.Kind = o.costModel
		if o.costModel == "flat" {
			spec.Transit.Tiers = nil // a flat override drops any preset schedule
		}
	}
	sets, err := parseSet(o.set)
	if err != nil {
		return err
	}
	for _, g := range sets {
		if err := scenario.ApplyParam(&spec, g.Param, g.Values[0]); err != nil {
			return err
		}
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", o.seeds)
	}
	grids, err := parseSweep(o.sweep)
	if err != nil {
		return err
	}
	for _, g := range grids {
		for _, set := range sets {
			if g.Param == set.Param {
				return fmt.Errorf("-set and -sweep both give %q", g.Param)
			}
		}
	}
	if o.ispReport && (o.seeds > 1 || len(grids) > 0) {
		return fmt.Errorf("-isp-report applies to single runs; use -sweep \"locality=...\" for grids")
	}
	if o.tracePath != "" && (o.seeds > 1 || len(grids) > 0) {
		// Batch workers share the process-wide trace slot; an interleaved
		// capture would be unreadable, so keep -trace to single runs.
		return fmt.Errorf("-trace applies to single runs, not -seeds/-sweep batches")
	}
	if o.ispReport && spec.Kind != scenario.KindSim {
		// Fail before the run, not after minutes of a workload that cannot
		// produce a traffic report.
		return fmt.Errorf("-isp-report needs a sim scenario, %s is %s", spec.Name, spec.Kind)
	}
	if o.seeds > 1 || len(grids) > 0 {
		return runScenarioBatch(spec, o, grids)
	}
	// The trace brackets exactly the primary run: uninstalled before the
	// -isp-report baselines re-run the spec, so the capture is one run's
	// spans, not a pile of overlapping simulations.
	var tr *obs.Trace
	if o.tracePath != "" {
		tr = obs.NewTrace("p2psim", obs.DefaultMaxSpans)
		if err := obs.Install(tr); err != nil {
			return err
		}
	}
	res, err := spec.Run(o.seed)
	if tr != nil {
		obs.Uninstall()
	}
	if err != nil {
		return err
	}
	if tr != nil {
		if err := writeFile(o.tracePath, func(f *os.File) error { return tr.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d spans, %d dropped) — load in Perfetto or chrome://tracing\n",
			o.tracePath, tr.SpanCount(), tr.Dropped())
	}
	if err := scenario.Fprint(os.Stdout, res); err != nil {
		return err
	}
	if res.Degradation != nil {
		fmt.Println()
		if err := res.Degradation.Fprint(os.Stdout); err != nil {
			return err
		}
	}
	if o.ispReport {
		if err := printISPReport(spec, res, o.seed); err != nil {
			return err
		}
	}
	if !o.noChart && len(res.Series) > 0 {
		fmt.Println("\nper-slot series:")
		if err := metrics.Chart(os.Stdout, o.width, o.height, res.Series...); err != nil {
			return err
		}
	}
	if o.jsonPath != "" {
		if err := writeFile(o.jsonPath, func(f *os.File) error {
			return scenario.WriteRunJSON(f, res)
		}); err != nil {
			return err
		}
		fmt.Printf("run written to %s\n", o.jsonPath)
	}
	if o.csvPath != "" {
		if len(res.Series) == 0 {
			return fmt.Errorf("scenario %s has no series to export; use -seeds/-sweep for summary CSV", o.name)
		}
		if err := writeFile(o.csvPath, func(f *os.File) error {
			return metrics.WriteCSV(f, res.Series...)
		}); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", o.csvPath)
	}
	return nil
}

// printISPReport renders the inter-ISP economics view of a sim run: the
// per-ISP settlement table, the ISP×ISP traffic matrix, and the
// welfare-vs-transit Pareto series comparing the run's scheduler against the
// baseline schedulers on the same world and seed — the Simple Locality and
// random baselines under the scenario's neighbor policy, plus the fully
// ISP-blind legacy baseline (random scheduler, uniform neighbor selection).
func printISPReport(spec scenario.Spec, res *scenario.Result, seed uint64) error {
	if spec.Kind != scenario.KindSim {
		return fmt.Errorf("-isp-report needs a sim scenario, %s is %s", spec.Name, spec.Kind)
	}
	if res.Settlement == nil || res.Traffic == nil {
		return fmt.Errorf("scenario %s recorded no traffic economics", spec.Name)
	}
	fmt.Println()
	if err := res.Settlement.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nISP×ISP chunk transfers (row = uploading ISP, col = downloading ISP):")
	for i, row := range res.Traffic.Rows() {
		fmt.Printf("  %3d:", i)
		for _, v := range row {
			fmt.Printf(" %8d", v)
		}
		fmt.Println()
	}

	points := []economics.Point{res.ParetoPoint(res.Solver)}
	baseline := func(label string, mutate func(*scenario.Spec)) error {
		alt := spec
		mutate(&alt)
		r, err := alt.Run(seed)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", label, err)
		}
		points = append(points, r.ParetoPoint(label))
		return nil
	}
	for _, sv := range []scenario.Solver{scenario.SolverLocality, scenario.SolverRandom} {
		if string(sv) == res.Solver {
			continue
		}
		if err := baseline(string(sv), func(s *scenario.Spec) { s.Solver = sv }); err != nil {
			return err
		}
	}
	// The fully ISP-blind legacy baseline only differs from the random
	// baseline above when the scenario runs a non-uniform neighbor policy;
	// skip the duplicate run (and duplicate Pareto row) otherwise.
	if spec.Sim.Locality != (tracker.Policy{}) {
		if err := baseline("random+uniform-neighbors", func(s *scenario.Spec) {
			s.Solver = scenario.SolverRandom
			s.Sim.Locality = tracker.Policy{}
		}); err != nil {
			return err
		}
	}
	fmt.Println()
	return economics.FprintPareto(os.Stdout, points)
}

// runScenarioBatch fans the spec over seeds × grid and reports aggregates.
func runScenarioBatch(spec scenario.Spec, o options, grids []scenario.Grid) error {
	batch := scenario.Batch{
		Spec:    spec,
		Seeds:   scenario.Seeds(o.seed, o.seeds),
		Workers: o.workers,
		Grids:   grids,
	}
	res, err := batch.Run()
	if err != nil {
		return err
	}
	if err := scenario.FprintBatch(os.Stdout, res); err != nil {
		return err
	}
	if o.jsonPath != "" {
		if err := writeFile(o.jsonPath, func(f *os.File) error {
			return scenario.WriteJSON(f, res)
		}); err != nil {
			return err
		}
		fmt.Printf("batch result written to %s\n", o.jsonPath)
	}
	if o.csvPath != "" {
		if err := writeFile(o.csvPath, func(f *os.File) error {
			return scenario.WriteCSV(f, res)
		}); err != nil {
			return err
		}
		fmt.Printf("summaries written to %s\n", o.csvPath)
	}
	return nil
}

// parseSweep parses "p1=v1,v2;p2=v3,v4" into grids.
func parseSweep(s string) ([]scenario.Grid, error) {
	if s == "" {
		return nil, nil
	}
	var grids []scenario.Grid
	for _, part := range strings.Split(s, ";") {
		key, vals, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("sweep %q: want param=v1,v2,...", part)
		}
		g := scenario.Grid{Param: strings.TrimSpace(key)}
		for _, v := range strings.Split(vals, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return nil, fmt.Errorf("sweep %q: %w", part, err)
			}
			g.Values = append(g.Values, x)
		}
		grids = append(grids, g)
	}
	return grids, nil
}

// parseSet parses -set's "p1=v1;p2=v2" into single-valued overrides.
func parseSet(s string) ([]scenario.Grid, error) {
	sets, err := parseSweep(s)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(sets))
	for _, g := range sets {
		if len(g.Values) != 1 {
			return nil, fmt.Errorf("-set %s: want exactly one value, got %d", g.Param, len(g.Values))
		}
		if seen[g.Param] {
			return nil, fmt.Errorf("-set gives %q twice", g.Param)
		}
		seen[g.Param] = true
	}
	if seen["locality"] && seen["cross-cap"] {
		return nil, fmt.Errorf("-set locality and cross-cap are mutually exclusive neighbor policies")
	}
	return sets, nil
}

// writeFile creates path, runs emit, and closes it, reporting write errors.
func writeFile(path string, emit func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
