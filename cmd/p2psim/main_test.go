package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestParseScale(t *testing.T) {
	for in, want := range map[string]string{
		"small": "small", "medium": "medium", "full": "full",
	} {
		s, err := parseScale(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if s.String() != want {
			t.Errorf("parseScale(%q) = %v", in, s)
		}
	}
	if _, err := parseScale("gigantic"); err == nil {
		t.Error("unknown scale should error")
	}
}

func TestSelectExperiments(t *testing.T) {
	ids, err := selectExperiments("fig3")
	if err != nil || len(ids) != 1 || ids[0] != "fig3" {
		t.Fatalf("single select: %v, %v", ids, err)
	}
	ids, err = selectExperiments("all")
	if err != nil || len(ids) < 9 {
		t.Fatalf("all select: %v, %v", ids, err)
	}
	if _, err := selectExperiments("no-such"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full small-scale experiment")
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	err := run([]string{"-exp", "fig3", "-scale", "small", "-nochart", "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time,") {
		t.Fatalf("CSV header missing: %q", string(data[:20]))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}); err == nil {
		t.Error("bogus experiment should error")
	}
	if err := run([]string{"-scale", "bogus"}); err == nil {
		t.Error("bogus scale should error")
	}
	if err := run([]string{"-exp", "all", "-csv", "x.csv"}); err == nil {
		t.Error("-csv with all experiments should error")
	}
}

func TestParseSweep(t *testing.T) {
	grids, err := parseSweep("neighbors=5,15,30; epsilon=0.01,0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 || grids[0].Param != "neighbors" || len(grids[0].Values) != 3 {
		t.Fatalf("grids = %+v", grids)
	}
	if grids[1].Param != "epsilon" || grids[1].Values[1] != 0.1 {
		t.Fatalf("grids = %+v", grids)
	}
	if _, err := parseSweep("neighbors"); err == nil {
		t.Error("missing '=' should error")
	}
	if _, err := parseSweep("neighbors=abc"); err == nil {
		t.Error("non-numeric value should error")
	}
	if grids, err := parseSweep(""); err != nil || grids != nil {
		t.Errorf("empty sweep: %v, %v", grids, err)
	}
}

func TestListScenarios(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario end-to-end")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "run.json")
	err := run([]string{"-scenario", "assignment", "-seed", "3", "-nochart", "-json", jsonPath})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"Scenario": "assignment"`) {
		t.Fatalf("JSON missing scenario name: %s", data)
	}
}

func TestRunScenarioBatchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scenario batch")
	}
	dir := t.TempDir()
	csv := filepath.Join(dir, "batch.csv")
	err := run([]string{"-scenario", "assignment", "-seeds", "3", "-workers", "2",
		"-sweep", "requests=40,80", "-csv", csv})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + one row per grid point
		t.Fatalf("want 3 CSV lines, got %d:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "scenario,solver,runs,failed,requests,") {
		t.Fatalf("unexpected header: %s", lines[0])
	}
}

func TestRunScenarioISPReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario plus its baselines end-to-end")
	}
	// The acceptance path: settlement table + Pareto series against the
	// baselines (output correctness is pinned in internal/economics and
	// internal/scenario; this exercises the CLI wiring).
	if err := run([]string{"-scenario", "locality-sweep", "-isp-report", "-nochart"}); err != nil {
		t.Fatal(err)
	}
	// Economics overrides reshape the spec.
	if err := run([]string{"-scenario", "quickstart", "-set", "locality=0.5",
		"-cost-model", "tiered", "-nochart"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", "quickstart", "-set", "cross-cap=3;transit-cost=2",
		"-nochart"}); err != nil {
		t.Fatal(err)
	}
}

func TestISPReportFlagValidation(t *testing.T) {
	if err := run([]string{"-scenario", "assignment", "-isp-report", "-nochart"}); err == nil {
		t.Error("-isp-report on a non-sim scenario should error")
	}
	if err := run([]string{"-scenario", "locality-sweep", "-isp-report", "-seeds", "2"}); err == nil {
		t.Error("-isp-report with a batch should error")
	}
	if err := run([]string{"-scenario", "churn", "-set", "locality=0.5;cross-cap=3"}); err == nil {
		t.Error("locality with cross-cap should error")
	}
	if err := run([]string{"-scenario", "churn", "-set", "locality=1.5", "-nochart"}); err == nil {
		t.Error("out-of-range locality should error")
	}
	if err := run([]string{"-scenario", "churn", "-cost-model", "bogus", "-nochart"}); err == nil {
		t.Error("unknown -cost-model should error")
	}
	if err := run([]string{"-scenario", "churn", "-cost-model", "tiered",
		"-set", "transit-cost=2", "-nochart"}); err == nil {
		t.Error("transit-cost with a tier schedule should error, not no-op")
	}
}

func TestParseSet(t *testing.T) {
	sets, err := parseSet("locality=0.5; transit-cost=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets[0].Param != "locality" || sets[1].Values[0] != 2 {
		t.Fatalf("sets = %+v", sets)
	}
	for in, why := range map[string]string{
		"locality=0.5,0.9":          "a grid is -sweep's job",
		"locality=0.5;locality=0.9": "a key given twice",
		"locality=0.5;cross-cap=3":  "two neighbor policies",
		"locality":                  "a missing value",
	} {
		if _, err := parseSet(in); err == nil {
			t.Errorf("parseSet(%q) should reject %s", in, why)
		}
	}
	if sets, err := parseSet(""); err != nil || sets != nil {
		t.Errorf("empty -set: %v, %v", sets, err)
	}
}

func TestRunScenarioSetOverrides(t *testing.T) {
	if err := run([]string{"-scenario", "assignment", "-set", "requests=40",
		"-sweep", "requests=40,80"}); err == nil {
		t.Error("a key in both -set and -sweep should error")
	}
	if err := run([]string{"-scenario", "assignment", "-set", "requests=40.5"}); err == nil {
		t.Error("a fractional integer override should error")
	}
	if err := run([]string{"-scenario", "assignment", "-sweep", "requests=40.5,40"}); err == nil {
		t.Error("a fractional integer sweep should error")
	}
	if err := run([]string{"-scenario", "quickstart", "-solver", "locality",
		"-set", "sharding=1"}); err == nil {
		t.Error("sharding a price-free baseline should error")
	}
}

// TestRunUnknownSolverNamesSolvers: the deleted warm solver's name is an
// unknown solver on every preset kind (sim, transport, live), and the error
// lists every solver that exists.
func TestRunUnknownSolverNamesSolvers(t *testing.T) {
	for _, preset := range []string{"churn", "assignment", "livenet"} {
		t.Run(preset, func(t *testing.T) {
			err := run([]string{"-scenario", preset, "-solver", "auction-warm", "-nochart"})
			if err == nil {
				t.Fatal("-solver auction-warm should error")
			}
			if !strings.Contains(err.Error(), `unknown solver "auction-warm"`) {
				t.Errorf("error %q does not call the solver unknown", err)
			}
			for _, sv := range scenario.Solvers() {
				if !strings.Contains(err.Error(), string(sv)) {
					t.Errorf("error %q does not name solver %q", err, sv)
				}
			}
		})
	}
}

// TestRunKnownSolverCapabilityErrors: a known solver that a preset kind
// cannot run is refused as a capability limit, not as an unknown name.
func TestRunKnownSolverCapabilityErrors(t *testing.T) {
	for _, c := range []struct{ preset, want string }{
		{"assignment", "cannot solve bare transportation instances"},
		{"livenet", "live scenarios always run the distributed auction"},
	} {
		err := run([]string{"-scenario", c.preset, "-solver", "locality", "-nochart"})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-scenario %s -solver locality: error %v, want %q", c.preset, err, c.want)
		}
	}
}

func TestRunScenarioRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scenario", "no-such"}); err == nil {
		t.Error("unknown scenario should error")
	}
	if err := run([]string{"-scenario", "assignment", "-seeds", "0"}); err == nil {
		t.Error("zero seeds should error")
	}
	if err := run([]string{"-scenario", "assignment", "-sweep", "bogus"}); err == nil {
		t.Error("malformed sweep should error")
	}
	if err := run([]string{"-scenario", "quickstart", "-solver", "bogus"}); err == nil {
		t.Error("unknown solver should error")
	}
}
