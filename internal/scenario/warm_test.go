package scenario

import (
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// recordingScheduler wraps the cold auction and captures every slot Instance
// it is asked to solve, together with the cold welfare it achieved — the
// exact solve sequence a run produces, for replay through the warm solver.
type recordingScheduler struct {
	inner     sched.Scheduler
	instances []*sched.Instance
	welfare   []float64
}

func (r *recordingScheduler) Name() string { return r.inner.Name() }

func (r *recordingScheduler) Schedule(in *sched.Instance) (*sched.Result, error) {
	res, err := r.inner.Schedule(in)
	if err != nil {
		return nil, err
	}
	w, err := in.Welfare(res.Grants)
	if err != nil {
		return nil, err
	}
	// Clone: the simulator's builder recycles instance storage two rounds
	// later, and this recorder keeps them for the whole run.
	r.instances = append(r.instances, in.Clone())
	r.welfare = append(r.welfare, w)
	return res, nil
}

// TestWarmEqualsColdWelfarePerScenario is the warm-start golden: for every
// registered sim scenario, replay the cold run's slot-instance sequence
// through the warm-started incremental auction and demand equal welfare on
// every single solve, where "equal" is pinned at two levels:
//
//   - the certificate band n·ε — both solvers terminate with an ε-CS
//     certificate, so each is within n·ε of that instance's optimum and
//     they cannot differ by more; a violation means the warm path lost its
//     optimality guarantee (a correctness bug, not tolerance);
//   - a 10⁻³ relative regression band — empirically the two agree to ~10⁻⁵
//     relative on these float-weighted workloads (tie-breaks inside the
//     shared ε-band account for the rest), so any real warm-start defect
//     shows up here long before it dents the certificate band.
//
// Bit-exact welfare identity is a theorem only for integral weights with
// ε < 1/(n+1); core's TestSolverWarmEqualsColdWelfareIntegerWeights and
// sched's TestWarmAuctionMatchesColdWelfare pin that case exactly.
func TestWarmEqualsColdWelfarePerScenario(t *testing.T) {
	const seed = 42
	for _, spec := range All() {
		spec := spec
		if spec.Kind != KindSim {
			continue
		}
		boundHeavy(t, &spec, 500, 10)
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := spec.Sim
			cfg.Seed = seed
			rec := &recordingScheduler{inner: &sched.Auction{Epsilon: cfg.Epsilon}}
			if _, err := sim.Run(cfg, rec); err != nil {
				t.Fatal(err)
			}
			if len(rec.instances) == 0 {
				t.Fatal("run produced no slot instances")
			}
			warm := &sched.WarmAuction{Epsilon: cfg.Epsilon}
			solved := 0
			for i, in := range rec.instances {
				res, err := warm.Schedule(in)
				if err != nil {
					t.Fatalf("solve %d: %v", i, err)
				}
				if err := in.Validate(res.Grants); err != nil {
					t.Fatalf("solve %d: warm grants infeasible: %v", i, err)
				}
				got, err := in.Welfare(res.Grants)
				if err != nil {
					t.Fatal(err)
				}
				want := rec.welfare[i]
				certBand := cfg.Epsilon*float64(len(in.Requests)) + 1e-9
				if diff := math.Abs(got - want); diff > certBand {
					t.Fatalf("solve %d (%d requests): warm welfare %v vs cold %v — Δ=%g exceeds the n·ε certificate band %g",
						i, len(in.Requests), got, want, diff, certBand)
				}
				if diff := math.Abs(got - want); diff > 1e-3*math.Max(1, math.Abs(want)) {
					t.Fatalf("solve %d (%d requests): warm welfare %v drifted %g from cold %v (> 10⁻³ relative)",
						i, len(in.Requests), got, got-want, want)
				}
				solved++
			}
			t.Logf("%d solves, warm welfare equals cold within the certificate band on every one", solved)
		})
	}
}

// TestWarmScenarioPresetMatchesColdMetrics pins the registered churn-warm
// preset to its cold twin at the whole-run level: per-slot welfare equality
// implies the two runs schedule equally well, though grant-level tie-breaks
// may route chunks differently.
func TestWarmScenarioPresetMatchesColdMetrics(t *testing.T) {
	warmSpec, ok := Get("churn-warm")
	if !ok {
		t.Fatal("churn-warm not registered")
	}
	coldSpec := warmSpec.WithSolver(SolverAuction)
	warmRes, err := warmSpec.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := coldSpec.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	// Tie-broken grants may differ chunk-by-chunk, which perturbs downstream
	// caches; welfare per slot must stay within the ε-CS band of the same
	// optimum on the first slot (identical world) and close thereafter.
	if warmRes.Metrics["grants"] == 0 {
		t.Fatal("warm run scheduled nothing")
	}
	if math.IsNaN(warmRes.Metrics["welfare_per_slot"]) {
		t.Fatal("warm welfare is NaN")
	}
	rel := math.Abs(warmRes.Metrics["welfare_per_slot"]-coldRes.Metrics["welfare_per_slot"]) /
		math.Max(1, math.Abs(coldRes.Metrics["welfare_per_slot"]))
	if rel > 0.05 {
		t.Fatalf("warm run welfare/slot %v drifted %.1f%% from cold %v",
			warmRes.Metrics["welfare_per_slot"], 100*rel, coldRes.Metrics["welfare_per_slot"])
	}
}

// TestWarmStartValidation pins the plumbing: the warm auction is a sim
// solver of its own, and the warmstart sweep key maps onto it.
func TestWarmStartValidation(t *testing.T) {
	spec := mustGet(t, "churn").WithSolver(SolverAuctionWarm)
	if err := spec.Validate(); err != nil {
		t.Fatalf("warm churn should validate: %v", err)
	}
	if s, err := spec.Scheduler(spec.Sim); err != nil {
		t.Fatal(err)
	} else if _, ok := s.(*sched.WarmAuction); !ok {
		t.Fatalf("auction-warm built %T, want *sched.WarmAuction", s)
	}
	testVariantSweepKey(t, "warmstart", SolverAuctionWarm, SolverAuctionSharded)
}

// testVariantSweepKey pins a variant's sweep key: 1 turns the auction into
// the variant and 0 turns it back; 1 on the other variant or on a
// price-free baseline is an error, and 0 leaves other solvers alone.
func testVariantSweepKey(t *testing.T, key string, variant, other Solver) {
	t.Helper()
	for _, c := range []struct {
		from    Solver
		v       float64
		want    Solver
		wantErr bool
	}{
		{SolverAuction, 1, variant, false},
		{variant, 1, variant, false},
		{variant, 0, SolverAuction, false},
		{SolverAuction, 0, SolverAuction, false},
		{SolverLocality, 0, SolverLocality, false},
		{other, 0, other, false},
		{other, 1, other, true},
		{SolverLocality, 1, SolverLocality, true},
		{SolverAuctionJacobi, 1, SolverAuctionJacobi, true},
	} {
		spec := mustGet(t, "churn").WithSolver(c.from)
		err := ApplyParam(&spec, key, c.v)
		if (err != nil) != c.wantErr {
			t.Errorf("%s=%v on %s: err = %v, want error %v", key, c.v, c.from, err, c.wantErr)
		}
		if spec.Solver != c.want {
			t.Errorf("%s=%v on %s: solver = %s, want %s", key, c.v, c.from, spec.Solver, c.want)
		}
	}
}
