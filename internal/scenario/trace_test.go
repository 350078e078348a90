package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// captureRun executes the spec at seed with a fresh trace installed and
// returns the run result plus the captured trace. It is not parallel-safe:
// the obs enable flag is process-global.
func captureRun(t *testing.T, spec Spec, seed uint64) (*Result, *obs.Trace) {
	t.Helper()
	obs.Uninstall()
	tr := obs.NewTrace("test", 1<<14)
	if err := obs.Install(tr); err != nil {
		t.Fatalf("install trace: %v", err)
	}
	defer obs.Uninstall()
	res, err := spec.Run(seed)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	return res, tr
}

// TestTraceDeterminismGolden is the satellite golden: tracing quickstart at
// seed 42 twice yields identical span names, counts and ordering (durations
// excluded) — the trace skeleton is a pure function of the seed.
func TestTraceDeterminismGolden(t *testing.T) {
	spec, ok := Get("quickstart")
	if !ok {
		t.Fatal("quickstart not registered")
	}
	_, first := captureRun(t, spec, 42)
	_, second := captureRun(t, spec, 42)
	a, b := first.Skeleton(), second.Skeleton()
	if len(a) == 0 {
		t.Fatal("traced quickstart recorded no spans")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("trace skeletons diverge across identical runs:\nfirst  (%d spans)\nsecond (%d spans)", len(a), len(b))
	}
}

// TestTracingDoesNotPerturbScheduling pins the read-only contract: a traced
// run reports bit-identical metrics to an untraced run of the same seed,
// for every registered determinism-relevant scenario shape (one per kind
// axis kept small enough for routine runs).
func TestTracingDoesNotPerturbScheduling(t *testing.T) {
	for _, name := range []string{"quickstart", "churn", "sharded-churn"} {
		spec, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		boundHeavy(t, &spec, 200, 8)
		plain, err := spec.Run(42)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		traced, _ := captureRun(t, spec, 42)
		if !reflect.DeepEqual(plain.Metrics, traced.Metrics) {
			t.Fatalf("%s: tracing perturbed the run:\nuntraced %v\ntraced   %v", name, plain.Metrics, traced.Metrics)
		}
	}
}

// TestTraceSmokePerLayer mirrors CI's trace-smoke gate in-process: a traced
// sharded run must produce valid Chrome trace JSON with at least one span
// from every instrumented layer of the sim stack (scenario, sim slot loop,
// cluster orchestrator, shard workers).
func TestTraceSmokePerLayer(t *testing.T) {
	spec, ok := Get("quickstart")
	if !ok {
		t.Fatal("quickstart not registered")
	}
	spec.Name = "quickstart-sharded-trace" // unregistered variant: sharded solve path
	spec.Solver = SolverAuctionSharded
	spec.Sharding = Sharding{Workers: 2}
	_, tr := captureRun(t, spec, 1)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	perLayer := map[string]int{}
	for _, label := range tr.Skeleton() {
		track := label[:strings.IndexByte(label, '/')]
		if strings.HasPrefix(track, "shard-worker-") {
			track = "shard-worker"
		}
		perLayer[track]++
	}
	for _, layer := range []string{"scenario", "sim", "cluster", "shard-worker"} {
		if perLayer[layer] == 0 {
			t.Fatalf("no spans recorded for layer %q (got %v)", layer, perLayer)
		}
	}
}
