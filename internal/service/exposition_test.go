package service

// exposition_test.go: a promlint-style validator over the daemon's full
// /metrics output. It re-parses the text exposition from scratch — HELP and
// TYPE present and ordered, metric names legal, histogram buckets cumulative
// and capped by a +Inf bucket equal to _count — so a formatting regression
// in any family of the daemon's obs registry fails here before a real
// scraper ever sees it.

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

// scrapeMetrics fetches the daemon's /metrics exposition through its HTTP
// handler.
func scrapeMetrics(t testing.TB, d *Daemon) string {
	t.Helper()
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// parsedFamily is one metric family as re-parsed from the exposition text.
type parsedFamily struct {
	help    string
	kind    string
	samples map[string]float64 // sample line name{labels} -> value
}

// parseExposition validates the line discipline of a Prometheus text
// exposition and indexes it by family.
func parseExposition(t *testing.T, text string) map[string]*parsedFamily {
	t.Helper()
	families := map[string]*parsedFamily{}
	var current string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d (%q): %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				fail("HELP without text")
			}
			if !metricNameRe.MatchString(name) {
				fail("illegal metric name %q", name)
			}
			if _, dup := families[name]; dup {
				fail("duplicate HELP for %q", name)
			}
			families[name] = &parsedFamily{help: help, samples: map[string]float64{}}
			current = name
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				fail("TYPE without kind")
			}
			fam := families[name]
			if fam == nil || name != current {
				fail("TYPE not immediately after its HELP")
			}
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				fail("unknown kind %q", kind)
			}
			fam.kind = kind
		case strings.HasPrefix(line, "#"):
			fail("unexpected comment")
		default:
			name, valText, ok := strings.Cut(line, " ")
			if !ok {
				fail("sample without value")
			}
			base := name
			if i := strings.IndexByte(base, '{'); i >= 0 {
				base = base[:i]
			}
			base = strings.TrimSuffix(base, "_bucket")
			base = strings.TrimSuffix(base, "_sum")
			base = strings.TrimSuffix(base, "_count")
			fam := families[base]
			if fam == nil {
				fail("sample for undeclared family %q", base)
			}
			if base != current {
				fail("sample outside its family's block")
			}
			v, err := strconv.ParseFloat(valText, 64)
			if err != nil {
				fail("unparsable value: %v", err)
			}
			if _, dup := fam.samples[name]; dup {
				fail("duplicate sample %q", name)
			}
			fam.samples[name] = v
		}
	}
	return families
}

// checkHistogram validates Prometheus histogram semantics for one family:
// monotone non-decreasing cumulative buckets, a +Inf bucket, and
// +Inf == _count.
func checkHistogram(t *testing.T, name string, fam *parsedFamily) {
	t.Helper()
	type bucket struct {
		le  float64
		val float64
	}
	var buckets []bucket
	var count float64
	hasCount := false
	var infVal float64
	hasInf := false
	for sample, v := range fam.samples {
		switch {
		case strings.HasPrefix(sample, name+"_bucket{le="):
			leText := strings.TrimSuffix(strings.TrimPrefix(sample, name+`_bucket{le="`), `"}`)
			if leText == "+Inf" {
				hasInf = true
				infVal = v
				buckets = append(buckets, bucket{le: math.Inf(1), val: v})
				continue
			}
			le, err := strconv.ParseFloat(leText, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q: %v", name, leText, err)
			}
			buckets = append(buckets, bucket{le: le, val: v})
		case sample == name+"_count":
			hasCount = true
			count = v
		}
	}
	if !hasInf {
		t.Fatalf("%s: no +Inf bucket", name)
	}
	if !hasCount {
		t.Fatalf("%s: no _count sample", name)
	}
	if _, ok := fam.samples[name+"_sum"]; !ok {
		t.Fatalf("%s: no _sum sample", name)
	}
	if infVal != count {
		t.Fatalf("%s: +Inf bucket %v != _count %v", name, infVal, count)
	}
	// Validate monotone cumulative counts over ascending bounds (samples
	// were collected from a map, so order them here).
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].le == buckets[i-1].le {
			t.Fatalf("%s: duplicate bucket bound le=%v", name, buckets[i].le)
		}
		if buckets[i].val < buckets[i-1].val {
			t.Fatalf("%s: cumulative bucket counts decrease at le=%v", name, buckets[i].le)
		}
	}
}

// TestMetricsExpositionLint is the satellite validator: drive the daemon
// through enough traffic to touch every family, then lint the whole
// exposition.
func TestMetricsExpositionLint(t *testing.T) {
	d := newTestDaemon(t)
	seedBook(t, d)
	if err := d.Bid(2, []BidRequest{{
		Chunk:      chunk(0, 1),
		Value:      3,
		Candidates: []sched.Candidate{{Peer: 0, Cost: 0.5}, {Peer: 1, Cost: 1.5}},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := d.Leave(3); err != nil {
		t.Fatal(err)
	}

	text := scrapeMetrics(t, d)
	families := parseExposition(t, text)

	// Every family the daemon declares must survive the round trip, typed.
	wantKinds := map[string]string{
		"schedulerd_ticks_total":                "counter",
		"schedulerd_bids_total":                 "counter",
		"schedulerd_grants_total":               "counter",
		"schedulerd_http_requests_total":        "counter",
		"schedulerd_welfare_total":              "counter",
		"schedulerd_slot":                       "gauge",
		"schedulerd_peers":                      "gauge",
		"schedulerd_shards":                     "gauge",
		"schedulerd_solve_seconds":              "histogram",
		"schedulerd_http_request_seconds":       "histogram",
		"schedulerd_solver_bids_total":          "counter",
		"schedulerd_solver_iterations_total":    "counter",
		"schedulerd_solver_epsilon":             "gauge",
		"schedulerd_partition_migrations_total": "counter",
	}
	for name, kind := range wantKinds {
		fam := families[name]
		if fam == nil {
			t.Fatalf("family %q missing from exposition", name)
		}
		if fam.kind != kind {
			t.Fatalf("family %q has kind %q, want %q", name, fam.kind, kind)
		}
		if fam.help == "" {
			t.Fatalf("family %q has no HELP text", name)
		}
	}
	for name, fam := range families {
		if fam.kind == "" {
			t.Fatalf("family %q has HELP but no TYPE", name)
		}
		if strings.HasSuffix(name, "_total") && fam.kind != "counter" {
			t.Fatalf("family %q ends in _total but is a %s", name, fam.kind)
		}
		if fam.kind == "histogram" {
			checkHistogram(t, name, fam)
		}
	}

	// The tick above must have flowed into the solver families.
	if families["schedulerd_solver_bids_total"].samples["schedulerd_solver_bids_total"] <= 0 {
		t.Fatal("solver bids family was never fed")
	}
	if families["schedulerd_solver_epsilon"].samples["schedulerd_solver_epsilon"] != d.opts.Epsilon {
		t.Fatal("solver epsilon gauge does not match options")
	}
}
