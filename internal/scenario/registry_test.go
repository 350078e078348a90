package scenario

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// boundHeavy shrinks a Heavy spec to routine-test size — the same code path
// at a fraction of the wall time: static populations cap at peers, dynamic
// arrival rates at arrival peers/s. Full-size heavy runs stay reachable via
// p2psim and the benchmarks.
func boundHeavy(t *testing.T, spec *Spec, peers int, arrival float64) {
	t.Helper()
	if !spec.Heavy {
		return
	}
	if spec.Sim.Scenario == sim.ScenarioStatic && spec.Sim.StaticPeers > peers {
		if err := ApplyParam(spec, "peers", float64(peers)); err != nil {
			t.Fatal(err)
		}
	}
	if spec.Sim.Scenario == sim.ScenarioDynamic && spec.Sim.ArrivalPerSec > arrival {
		if err := ApplyParam(spec, "arrival", arrival); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryHasBuiltins(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d scenarios, want >= 8: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	for _, want := range []string{
		"quickstart", "vodstreaming", "churn", "livenet", "assignment",
		"flash-crowd", "diurnal", "asymmetric-cost", "large-scale",
		"mega-swarm", "sharded-churn", "locality-sweep", "isp-peering",
		"free-rider-sweep", "clique-attack",
	} {
		if _, ok := Get(want); !ok {
			t.Errorf("preset %q missing", want)
		}
	}
}

func TestRegisterRejectsDuplicatesAndInvalid(t *testing.T) {
	quick, _ := Get("quickstart")
	if err := Register(quick); err == nil {
		t.Error("duplicate registration should error")
	}
	if err := Register(Spec{Name: "broken", Kind: Kind(42)}); err == nil {
		t.Error("invalid spec should error")
	}
	if _, ok := Get("no-such-scenario"); ok {
		t.Error("Get should miss unknown names")
	}
}

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

// TestGoldenDeterminism is the registry's reproducibility contract: every
// scenario run twice under the same seed yields identical metric summaries.
// Heavy scenarios are checked on a shrunken copy of their spec (same code
// path, fraction of the wall time); the live TCP scenario is asynchronous by
// nature and is covered by TestLiveStableOutcome instead.
func TestGoldenDeterminism(t *testing.T) {
	const seed = 42
	for _, spec := range All() {
		spec := spec
		if spec.Kind == KindLive {
			continue
		}
		boundHeavy(t, &spec, 500, 10)
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			first, err := spec.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			second, err := spec.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Metrics) == 0 {
				t.Fatal("run produced no metrics")
			}
			if !reflect.DeepEqual(first.Metrics, second.Metrics) {
				t.Fatalf("metrics differ across identical runs:\n  first:  %v\n  second: %v",
					first.Metrics, second.Metrics)
			}
			other, err := spec.Run(seed + 1)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(first.Metrics, other.Metrics) {
				t.Fatalf("different seeds produced identical metrics — seed is not wired through: %v",
					first.Metrics)
			}
		})
	}
}

// TestLiveStableOutcome checks the livenet contest's value-ordered outcome:
// message timing is nondeterministic, but the win counts are pinned by the
// distinct valuations (capacity 4 < 6 requests, lowest-value downloader
// always priced out).
func TestLiveStableOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sockets")
	}
	spec, ok := Get("livenet")
	if !ok {
		t.Fatal("livenet not registered")
	}
	res, err := spec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	want := map[string]float64{
		"requested":         6,
		"wins_total":        4,
		"wins_downloader_0": 2,
		"wins_downloader_1": 2,
		"wins_downloader_2": 0,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v (all: %v)", k, m[k], v, m)
		}
	}
}

// TestHeavySmoke runs the heavy scenarios once each at a bounded size (10k
// static peers / 100 arrivals per second — large-scale's full dimensions,
// and a ~2.5k-peer pass through the 100k-peer presets' code path; the full
// populations are exercised by p2psim and the recorded benchmarks).
func TestHeavySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy scenarios")
	}
	for _, spec := range All() {
		if !spec.Heavy {
			continue
		}
		boundHeavy(t, &spec, 10000, 100)
		res, err := spec.Run(1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Metrics["grants"] <= 0 {
			t.Fatalf("%s scheduled nothing: %v", spec.Name, res.Metrics)
		}
	}
}

func TestWithSolverDerivesVariant(t *testing.T) {
	spec, _ := Get("quickstart")
	variant := spec.WithSolver(SolverLocality)
	if variant.Solver != SolverLocality || spec.Solver != SolverAuction {
		t.Fatalf("WithSolver mutated the original: %v / %v", spec.Solver, variant.Solver)
	}
	res, err := variant.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != string(SolverLocality) {
		t.Fatalf("result solver = %q", res.Solver)
	}
}

func TestTransportSolverRestrictions(t *testing.T) {
	spec, _ := Get("assignment")
	bad := spec.WithSolver(SolverLocality)
	if err := bad.Validate(); err == nil {
		t.Error("locality on a bare transportation instance should be rejected")
	}
	for _, sv := range []Solver{SolverAuctionWarm, SolverAuctionSharded} {
		if err := spec.WithSolver(sv).Validate(); err == nil {
			t.Errorf("%s on independent transportation instances should be rejected", sv)
		}
	}
	exact := spec.WithSolver(SolverExact)
	res, err := exact.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["gap_pct"] != 0 {
		t.Fatalf("exact solver has nonzero gap: %v", res.Metrics)
	}
}

func TestLiveRejectsSolverOverride(t *testing.T) {
	spec, _ := Get("livenet")
	for _, sv := range []Solver{SolverLocality, SolverAuctionWarm, SolverAuctionSharded, ""} {
		if err := spec.WithSolver(sv).Validate(); err == nil {
			t.Errorf("live scenarios should reject solver %q", sv)
		}
	}
	if err := spec.WithSolver(SolverAuction).Validate(); err != nil {
		t.Errorf("explicit auction solver should be accepted: %v", err)
	}
}
