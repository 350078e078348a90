// Command auctionlab exercises the primal-dual auction solver on random
// transportation instances and compares it against the exact min-cost-flow
// solver and the greedy heuristic:
//
//	auctionlab -requests 200 -sinks 40 -trials 5
//	auctionlab -sweep eps                     # ε ablation table
//	auctionlab -sweep size                    # scaling behaviour
//
// For every configuration it reports welfare (absolute and as % of optimal),
// solver time, iteration counts and the verified duality gap.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/randx"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "auctionlab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("auctionlab", flag.ContinueOnError)
	var (
		requests = fs.Int("requests", 200, "requests per instance")
		sinks    = fs.Int("sinks", 40, "sinks per instance")
		trials   = fs.Int("trials", 5, "instances per configuration")
		epsilon  = fs.Float64("eps", 0.01, "auction bid increment")
		seed     = fs.Uint64("seed", 1, "instance generator seed")
		sweep    = fs.String("sweep", "", "run a sweep instead: 'eps' or 'size'")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *sweep {
	case "":
		return compareOnce(*requests, *sinks, *trials, *epsilon, *seed)
	case "eps":
		return sweepEps(*requests, *sinks, *trials, *seed)
	case "size":
		return sweepSize(*trials, *epsilon, *seed)
	default:
		return fmt.Errorf("unknown sweep %q (want 'eps' or 'size')", *sweep)
	}
}

// instance builds a random slot-shaped transportation problem.
func instance(rng *randx.Source, requests, sinks int) *repro.Problem {
	return experiments.RandomTransport(rng, experiments.TransportShape{
		Requests: requests, Sinks: sinks, MaxDegree: 8,
		MinCapacity: 1, MaxCapacity: 6, MinWeight: -1, MaxWeight: 8,
	})
}

type tally struct {
	auctionWelfare, exactWelfare, greedyWelfare float64
	auctionTime, exactTime                      time.Duration
	iterations, bids                            int
	dualGap                                     float64
}

func measure(rng *randx.Source, requests, sinks, trials int, eps float64) (tally, error) {
	var t tally
	for i := 0; i < trials; i++ {
		p := instance(rng, requests, sinks)

		start := time.Now()
		res, err := repro.SolveAuction(p, repro.AuctionOptions{Epsilon: eps})
		if err != nil {
			return t, err
		}
		t.auctionTime += time.Since(start)
		t.auctionWelfare += res.Assignment.Welfare(p)
		t.iterations += res.Iterations
		t.bids += res.Bids
		t.dualGap += repro.DualObjective(p, res.Prices) - res.Assignment.Welfare(p)
		if err := repro.VerifyEpsilonCS(p, res.Assignment, res.Prices, eps, 1e-9); err != nil {
			return t, fmt.Errorf("ε-CS verification failed: %w", err)
		}

		start = time.Now()
		exact, err := repro.SolveExact(p)
		if err != nil {
			return t, err
		}
		t.exactTime += time.Since(start)
		t.exactWelfare += exact.Welfare(p)

		t.greedyWelfare += core.SolveGreedy(p).Welfare(p)
	}
	return t, nil
}

func compareOnce(requests, sinks, trials int, eps float64, seed uint64) error {
	rng := randx.New(seed)
	t, err := measure(rng, requests, sinks, trials, eps)
	if err != nil {
		return err
	}
	n := float64(trials)
	fmt.Printf("instances: %d × (%d requests, %d sinks), ε=%v\n\n", trials, requests, sinks, eps)
	fmt.Printf("%-10s %14s %12s %12s\n", "solver", "welfare(avg)", "% of exact", "time/solve")
	pct := func(w float64) float64 {
		if t.exactWelfare == 0 {
			return 100
		}
		return 100 * w / t.exactWelfare
	}
	fmt.Printf("%-10s %14.2f %11.2f%% %12v\n", "auction",
		t.auctionWelfare/n, pct(t.auctionWelfare), (t.auctionTime / time.Duration(trials)).Round(time.Microsecond))
	fmt.Printf("%-10s %14.2f %11.2f%% %12v\n", "exact",
		t.exactWelfare/n, 100.0, (t.exactTime / time.Duration(trials)).Round(time.Microsecond))
	fmt.Printf("%-10s %14.2f %11.2f%% %12s\n", "greedy",
		t.greedyWelfare/n, pct(t.greedyWelfare), "-")
	fmt.Printf("\nauction: %.0f iterations, %.0f bids, mean duality gap %.4f (bound n·ε=%.2f)\n",
		float64(t.iterations)/n, float64(t.bids)/n, t.dualGap/n, float64(requests)*eps)
	return nil
}

func sweepEps(requests, sinks, trials int, seed uint64) error {
	fmt.Printf("ε sweep on %d × (%d requests, %d sinks)\n\n", trials, requests, sinks)
	fmt.Printf("%10s %14s %12s %12s %12s\n", "epsilon", "welfare(avg)", "% of exact", "iterations", "time/solve")
	for _, eps := range []float64{0, 0.001, 0.01, 0.1, 0.5, 1, 2} {
		rng := randx.New(seed) // same instances for every ε
		t, err := measure(rng, requests, sinks, trials, eps)
		if err != nil {
			return err
		}
		n := float64(trials)
		pct := 100.0
		if t.exactWelfare != 0 {
			pct = 100 * t.auctionWelfare / t.exactWelfare
		}
		fmt.Printf("%10v %14.2f %11.2f%% %12.0f %12v\n",
			eps, t.auctionWelfare/n, pct, float64(t.iterations)/n,
			(t.auctionTime / time.Duration(trials)).Round(time.Microsecond))
	}
	return nil
}

func sweepSize(trials int, eps float64, seed uint64) error {
	fmt.Printf("size sweep (ε=%v, %d trials each)\n\n", eps, trials)
	fmt.Printf("%10s %8s %14s %12s %14s %14s\n",
		"requests", "sinks", "welfare(avg)", "% of exact", "auction time", "exact time")
	for _, size := range []struct{ r, s int }{
		{50, 10}, {100, 20}, {200, 40}, {500, 100}, {1000, 200}, {2000, 400},
	} {
		rng := randx.New(seed)
		t, err := measure(rng, size.r, size.s, trials, eps)
		if err != nil {
			return err
		}
		n := float64(trials)
		pct := 100.0
		if t.exactWelfare != 0 {
			pct = 100 * t.auctionWelfare / t.exactWelfare
		}
		fmt.Printf("%10d %8d %14.2f %11.2f%% %14v %14v\n",
			size.r, size.s, t.auctionWelfare/n, pct,
			(t.auctionTime / time.Duration(trials)).Round(time.Microsecond),
			(t.exactTime / time.Duration(trials)).Round(time.Microsecond))
	}
	return nil
}
