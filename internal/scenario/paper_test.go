package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
)

func TestAtScales(t *testing.T) {
	for _, s := range []Scale{ScaleSmall, ScaleMedium, ScaleFull} {
		cfg, err := At(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v config invalid: %v", s, err)
		}
	}
	if _, err := At(Scale(99)); err == nil {
		t.Fatal("unknown scale should error")
	}
	if Scale(99).String() == "" {
		t.Fatal("unknown scale string empty")
	}
}

func TestReproConfigCalibrations(t *testing.T) {
	cfg := ReproConfig()
	if cfg.CostScale != 0.3 {
		t.Errorf("CostScale = %v", cfg.CostScale)
	}
	if cfg.LocalityRounds != 1 {
		t.Errorf("LocalityRounds = %d", cfg.LocalityRounds)
	}
}

func TestRandomTransportShape(t *testing.T) {
	p := RandomTransport(randx.New(5), TransportShape{
		Requests: 50, Sinks: 10, MaxDegree: 8,
		MinCapacity: 1, MaxCapacity: 6, MinWeight: -1, MaxWeight: 8,
	})
	if p.NumRequests() != 50 || p.NumSinks() != 10 {
		t.Fatalf("instance %dx%d", p.NumRequests(), p.NumSinks())
	}
	if p.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}

// TestMeasureVerifiesCertificates solves random instances with the auction,
// the exact solver and the greedy baseline: every auction result carries a
// valid ε-CS certificate, the auction's total welfare stays within n·ε of the
// exact optimum, and greedy never beats exact.
func TestMeasureVerifiesCertificates(t *testing.T) {
	const (
		requests, sinks, trials = 60, 12, 3
		eps                     = 0.01
	)
	shape := TransportShape{
		Requests: requests, Sinks: sinks, MaxDegree: 8,
		MinCapacity: 1, MaxCapacity: 6, MinWeight: -1, MaxWeight: 8,
	}
	rng := randx.New(6)
	var auction, exact, greedy float64
	for i := 0; i < trials; i++ {
		p := RandomTransport(rng, shape)
		res, err := core.SolveAuction(p, core.AuctionOptions{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyEpsilonCS(p, res.Assignment, res.Prices, eps, 1e-9); err != nil {
			t.Fatalf("trial %d: ε-CS verification failed: %v", i, err)
		}
		auction += res.Assignment.Welfare(p)
		opt, err := core.SolveExact(p)
		if err != nil {
			t.Fatal(err)
		}
		exact += opt.Welfare(p)
		greedy += core.SolveGreedy(p).Welfare(p)
	}
	if auction <= 0 || exact <= 0 {
		t.Fatalf("degenerate welfare: auction %v, exact %v", auction, exact)
	}
	if slack := trials * requests * eps; auction < exact-slack {
		t.Fatalf("auction %v below exact %v - slack", auction, exact)
	}
	if greedy > exact+1e-9 {
		t.Fatalf("greedy beat exact: %v > %v", greedy, exact)
	}
}

// TestAblationEpsilon runs the ε ablation as the assignment preset's sweep:
// every point's welfare stays within Theorem 2's n·ε of the exact optimum
// (each run also verified its ε-CS certificate), the gap never goes negative
// and never explodes, and no solve stalls.
func TestAblationEpsilon(t *testing.T) {
	spec, _ := Get("assignment")
	epsilons := []float64{0, 0.001, 0.01, 0.1, 0.5, 1}
	res, err := Batch{
		Spec:  spec,
		Seeds: []uint64{1},
		Grids: []Grid{{Param: "epsilon", Values: epsilons}},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(epsilons) {
		t.Fatalf("records = %d, want %d", len(res.Records), len(epsilons))
	}
	for _, rec := range res.Records {
		if rec.Err != "" {
			t.Fatalf("ε=%v: %s", rec.Point["epsilon"], rec.Err)
		}
		eps, m := rec.Point["epsilon"], rec.Metrics
		if gap := m["gap_pct"]; gap < -1e-6 || gap > 50 {
			t.Errorf("ε=%v: optimality gap %v%% out of bounds", eps, gap)
		}
		if slack := float64(spec.Transport.Requests) * eps; m["welfare"] < m["exact_welfare"]-slack-1e-9 {
			t.Errorf("ε=%v: welfare %v below exact %v − n·ε", eps, m["welfare"], m["exact_welfare"])
		}
		if m["stalls"] != 0 {
			t.Errorf("ε=%v: %v stalled solves", eps, m["stalls"])
		}
	}
}
