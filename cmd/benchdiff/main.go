// Command benchdiff compares a fresh `go test -bench` run against the
// repository's recorded benchmark baselines (BENCH_*.json at the repo
// root) and prints a benchstat-style ratio table. It is report-only by
// design: it always exits 0 on a successful comparison, because the
// baselines were recorded on a specific machine and CI hardware varies —
// the table is for humans (and the nightly artifacts) to spot trends, not
// a gate. See docs/PERFORMANCE.md ("Recorded baselines").
//
//	go test -run '^$' -bench 'BenchmarkShard|BenchmarkPipeline' -benchtime 10x -benchmem . | tee bench.txt
//	go run ./cmd/benchdiff -bench bench.txt BENCH_shard.json BENCH_pipeline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkFoo-8   	      10	  12345678 ns/op	  123 B/op	  4 allocs/op
//
// The -N GOMAXPROCS suffix and the memory columns are optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9]+) allocs/op)?`)

// result is one parsed benchmark measurement.
type result struct {
	nsPerOp  float64
	bPerOp   float64
	allocs   float64
	hasAlloc bool
}

// manifest mirrors the BENCH_*.json shape benchdiff needs.
type manifest struct {
	Name       string `json:"name"`
	Date       string `json:"date"`
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	benchPath := fs.String("bench", "", "path to `go test -bench` output (default: stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	baselines := fs.Args()
	if len(baselines) == 0 {
		var err error
		baselines, err = listBaselines(".")
		if err != nil {
			return err
		}
	}
	in := os.Stdin
	if *benchPath != "" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark result lines found")
	}
	for _, path := range baselines {
		if err := compare(out, path, current); err != nil {
			return err
		}
	}
	return nil
}

// listBaselines globs the repo-root manifests.
func listBaselines(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "BENCH_") && strings.HasSuffix(name, ".json") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json baselines in %s", dir)
	}
	return out, nil
}

// parseBench extracts benchmark results from `go test -bench` output.
func parseBench(f *os.File) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := result{}
		r.nsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			r.bPerOp, _ = strconv.ParseFloat(m[3], 64)
			r.allocs, _ = strconv.ParseFloat(m[4], 64)
			r.hasAlloc = true
		}
		out[m[1]] = r
	}
	return out, sc.Err()
}

// compare prints one manifest's ratio table against the current run.
func compare(out *os.File, path string, current map[string]result) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(out, "\n%s (recorded %s):\n", path, m.Date)
	fmt.Fprintf(out, "  %-44s %14s %14s %8s\n", "benchmark", "baseline ns/op", "current ns/op", "ratio")
	matched := 0
	for _, b := range m.Benchmarks {
		cur, ok := current[b.Name]
		if !ok {
			continue
		}
		matched++
		ratio := 0.0
		if cur.nsPerOp > 0 {
			ratio = b.NsPerOp / cur.nsPerOp
		}
		fmt.Fprintf(out, "  %-44s %14.0f %14.0f %7.2fx\n", b.Name, b.NsPerOp, cur.nsPerOp, ratio)
	}
	if matched == 0 {
		fmt.Fprintf(out, "  (no benchmarks from this manifest in the current run)\n")
	}
	return nil
}
