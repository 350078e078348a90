package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSeeds(t *testing.T) {
	if got := Seeds(5, 3); !reflect.DeepEqual(got, []uint64{5, 6, 7}) {
		t.Fatalf("Seeds(5,3) = %v", got)
	}
}

func TestExpandGrids(t *testing.T) {
	points, err := expandGrids([]Grid{
		{Param: "a", Values: []float64{1, 2}},
		{Param: "b", Values: []float64{10, 20, 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("want 6 points, got %d: %v", len(points), points)
	}
	if points[0]["a"] != 1 || points[0]["b"] != 10 || points[5]["a"] != 2 || points[5]["b"] != 30 {
		t.Fatalf("unexpected cartesian order: %v", points)
	}
	if _, err := expandGrids([]Grid{{Param: "a"}}); err == nil {
		t.Error("empty grid should error")
	}
	points, err = expandGrids(nil)
	if err != nil || len(points) != 1 || len(points[0]) != 0 {
		t.Fatalf("no grids should expand to one empty point: %v, %v", points, err)
	}
}

func TestApplyParamUnknownKey(t *testing.T) {
	spec, _ := Get("quickstart")
	if err := ApplyParam(&spec, "frobnicate", 1); err == nil {
		t.Error("unknown parameter should error")
	}
	if err := ApplyParam(&spec, "neighbors", 7); err != nil {
		t.Fatal(err)
	}
	if spec.Sim.NeighborCount != 7 {
		t.Fatalf("neighbors not applied: %d", spec.Sim.NeighborCount)
	}
}

// TestApplyParamRejectsFractionalIntegers: an integer key given 40.5 would
// run 40 and be labelled 40.5, so every integer key refuses a fraction (and
// an infinity) while still accepting whole values.
func TestApplyParamRejectsFractionalIntegers(t *testing.T) {
	for _, key := range []string{
		"peers", "slots", "neighbors",
		"seeds-per-video", "videos", "window",
		"requests", "sinks",
		"shard-workers",
		"cross-cap", "clique-size",
		"edge-capacity", "edge-cache", "origin-capacity",
		"rejoin-after",
	} {
		for _, v := range []float64{40.5, 0.25, math.Inf(1)} {
			spec := mustGet(t, "cdn-assist")
			if err := ApplyParam(&spec, key, v); err == nil {
				t.Errorf("ApplyParam(%s, %v) accepted a non-integral value", key, v)
			}
		}
		spec := mustGet(t, "cdn-assist")
		if err := ApplyParam(&spec, key, 4); err != nil {
			t.Errorf("ApplyParam(%s, 4): %v", key, err)
		}
	}
	// Real-valued keys keep their fractions.
	spec := mustGet(t, "cdn-assist")
	if err := ApplyParam(&spec, "epsilon", 0.25); err != nil {
		t.Errorf("ApplyParam(epsilon, 0.25): %v", err)
	}
}

// batchSpec is a fast spec for batch tests.
func batchSpec(t *testing.T) Spec {
	t.Helper()
	spec, ok := Get("assignment")
	if !ok {
		t.Fatal("assignment not registered")
	}
	spec.Transport.Requests = 30
	spec.Transport.Sinks = 8
	spec.Transport.Trials = 1
	return spec
}

// TestBatchParallelMatchesSequential: the worker pool writes results to
// indexed slots, so any worker count yields record-identical output.
func TestBatchParallelMatchesSequential(t *testing.T) {
	base := Batch{
		Spec:  batchSpec(t),
		Seeds: Seeds(1, 6),
		Grids: []Grid{{Param: "requests", Values: []float64{20, 40}}},
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 4
	a, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("parallel batch records differ from sequential")
	}
	if !reflect.DeepEqual(a.Summaries, b.Summaries) {
		t.Fatal("parallel batch summaries differ from sequential")
	}
	if len(a.Records) != 12 || len(a.Summaries) != 2 {
		t.Fatalf("want 12 records / 2 summaries, got %d / %d", len(a.Records), len(a.Summaries))
	}
}

func TestBatchAggregation(t *testing.T) {
	batch := Batch{Spec: batchSpec(t), Seeds: Seeds(1, 5), Workers: 2}
	res, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 1 {
		t.Fatalf("want one summary, got %d", len(res.Summaries))
	}
	sum := res.Summaries[0]
	if sum.Runs != 5 || sum.Failed != 0 {
		t.Fatalf("runs=%d failed=%d", sum.Runs, sum.Failed)
	}
	// Mean over records must equal the summary's mean.
	var total float64
	for _, rec := range res.Records {
		total += rec.Metrics["welfare"]
	}
	if got := sum.Metrics["welfare"].Mean; math.Abs(got-total/5) > 1e-9 {
		t.Fatalf("welfare mean %v, want %v", got, total/5)
	}
	agg := sum.Metrics["welfare"]
	if agg.P95 < agg.P50 {
		t.Fatalf("p95 %v < p50 %v", agg.P95, agg.P50)
	}
}

func TestBatchRejectsBadGridUpfront(t *testing.T) {
	batch := Batch{
		Spec:  batchSpec(t),
		Seeds: Seeds(1, 2),
		Grids: []Grid{{Param: "frobnicate", Values: []float64{1}}},
	}
	if _, err := batch.Run(); err == nil {
		t.Error("unknown sweep parameter should fail the whole batch upfront")
	}
}

func TestBatchRecordsRunFailures(t *testing.T) {
	// peers=0 is invalid for a static scenario: the run fails, the batch
	// records it and carries on.
	spec, _ := Get("quickstart")
	batch := Batch{
		Spec:  spec,
		Seeds: Seeds(1, 1),
		Grids: []Grid{{Param: "peers", Values: []float64{0, 10}}},
	}
	res, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].Err == "" {
		t.Error("peers=0 run should have recorded an error")
	}
	if res.Records[1].Err != "" {
		t.Errorf("peers=10 run failed: %s", res.Records[1].Err)
	}
	if res.Summaries[0].Failed != 1 || res.Summaries[1].Failed != 0 {
		t.Fatalf("failure accounting wrong: %+v", res.Summaries)
	}
}

func TestWriteCSVAndJSON(t *testing.T) {
	batch := Batch{
		Spec:  batchSpec(t),
		Seeds: Seeds(1, 2),
		Grids: []Grid{{Param: "requests", Values: []float64{20, 40}}},
	}
	res, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,solver,runs,failed,requests,") {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.Contains(lines[0], "welfare_mean,welfare_p50,welfare_p95") {
		t.Fatalf("header missing aggregate columns: %s", lines[0])
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	var back BatchResult
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != res.Scenario || len(back.Records) != len(res.Records) {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

func TestFprintOutputs(t *testing.T) {
	spec := batchSpec(t)
	run, err := spec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fprint(&buf, run); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scenario assignment") ||
		!strings.Contains(buf.String(), "welfare") {
		t.Fatalf("Fprint output:\n%s", buf.String())
	}
	batch := Batch{Spec: spec, Seeds: Seeds(1, 2)}
	res, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := FprintBatch(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 seed(s)") {
		t.Fatalf("FprintBatch output:\n%s", buf.String())
	}
}

func TestExpandGridsRejectsDuplicateParam(t *testing.T) {
	_, err := expandGrids([]Grid{
		{Param: "peers", Values: []float64{40}},
		{Param: "peers", Values: []float64{80}},
	})
	if err == nil {
		t.Error("duplicate sweep parameter should error instead of silently dropping values")
	}
}
