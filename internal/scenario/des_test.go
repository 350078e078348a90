package scenario

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// validatingDES is sim.DES with every round's grants checked against the
// round's instance before the world applies them. Embedding keeps the world
// binding sim.Run gives DES.
type validatingDES struct {
	*sim.DES
	rounds int
}

func (v *validatingDES) Schedule(in *sched.Instance) (*sched.Result, error) {
	res, err := v.DES.Schedule(in)
	if err != nil {
		return nil, err
	}
	if err := in.Validate(res.Grants); err != nil {
		return nil, fmt.Errorf("round %d: %w", v.rounds, err)
	}
	v.rounds++
	return res, nil
}

// TestDESRunsCDNAndFaultWorlds runs the message-level auction on a CDN
// world (servers are protocol nodes in no swarm, broadcasting λ_u to the
// watchers whose requests list them) and on a crash-fault world with 15%
// message loss. Each run must be reproducible bit for bit, every round's
// grants must be feasible, and the population must match the centralized
// auction's on the same world — scheduling never moves arrivals, departures
// or crashes. The welfare gap to the centralized auction is logged, not
// bounded: lost messages leave bids unresolved by design.
func TestDESRunsCDNAndFaultWorlds(t *testing.T) {
	cdnAssist := mustGet(t, "cdn-assist").Sim
	cdnAssist.Slots = 3
	lossy := mustGet(t, "chaos-churn").Sim
	lossy.Fault.DropProb = 0.15
	for _, tc := range []struct {
		name  string
		cfg   sim.Config
		check func(*testing.T, *sim.Results)
	}{
		{"cdn-assist", cdnAssist, func(t *testing.T, r *sim.Results) {
			if r.ServedEdge+r.ServedOrigin == 0 {
				t.Fatal("no chunk was served by the CDN tier")
			}
		}},
		{"chaos-churn-lossy", lossy, func(t *testing.T, r *sim.Results) {
			if r.Crashes == 0 {
				t.Fatal("no crash-stop fired")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 1
			run := func() *sim.Results {
				v := &validatingDES{DES: &sim.DES{}}
				res, err := sim.Run(cfg, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := cfg.Slots * cfg.BidRoundsPerSlot; v.rounds != want {
					t.Fatalf("validated %d rounds, want %d", v.rounds, want)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two runs at the same seed differ")
			}
			if a.TotalGrants == 0 || a.PriceTrace.Len() == 0 {
				t.Fatalf("degenerate run: %d grants, %d price samples", a.TotalGrants, a.PriceTrace.Len())
			}
			tc.check(t, a)
			central, err := sim.Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Online.Values(), central.Online.Values()) {
				t.Fatalf("population diverged from the centralized auction's:\n des %v\n auction %v",
					a.Online.Values(), central.Online.Values())
			}
			cw, dw := central.Welfare.Summarize().Mean, a.Welfare.Summarize().Mean
			t.Logf("welfare/slot: auction %.2f, auction-des %.2f (gap %.2f%%)",
				cw, dw, 100*math.Abs(cw-dw)/math.Abs(cw))
		})
	}
}
