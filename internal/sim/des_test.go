package sim

import (
	"math"
	"testing"

	"repro/internal/sched"
)

// runDES runs cfg under the message-level auction.
func runDES(cfg Config) (*Results, error) { return Run(cfg, &DES{}) }

func desConfig() Config {
	cfg := testConfig()
	cfg.StaticPeers = 15
	cfg.Slots = 3
	cfg.BidRoundsPerSlot = 2
	return cfg
}

func TestDESBasics(t *testing.T) {
	cfg := desConfig()
	res, err := runDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare.Len() != cfg.Slots {
		t.Fatalf("welfare points = %d", res.Welfare.Len())
	}
	if res.TotalGrants == 0 {
		t.Fatal("distributed auction granted nothing")
	}
	if res.PriceTrace == nil || res.PriceTrace.Len() == 0 {
		t.Fatal("price trace missing")
	}
	// The trace must reset to 0 at every slot start.
	resets := 0
	for _, p := range res.PriceTrace.Points {
		if p.V == 0 {
			resets++
		}
	}
	if resets < cfg.Slots {
		t.Fatalf("expected ≥ %d λ resets, saw %d", cfg.Slots, resets)
	}
	for _, p := range res.Welfare.Points {
		if p.V < -1e-9 {
			t.Fatalf("negative welfare %v from the distributed auction", p.V)
		}
	}
	// The DES engine rides the same grant-accounting pipeline as the fast
	// engine: traffic economics must be recorded identically.
	if res.TrafficMatrix == nil || res.TrafficMatrix.Total() != res.TotalGrants {
		t.Fatalf("DES traffic matrix out of step with grants: %v vs %d",
			res.TrafficMatrix, res.TotalGrants)
	}
	if len(res.SlotTraffic) != cfg.Slots {
		t.Fatalf("DES recorded %d slot ledgers for %d slots", len(res.SlotTraffic), cfg.Slots)
	}
	if res.CrossISPBytes.Len() != cfg.Slots {
		t.Fatalf("DES cross-ISP bytes series has %d points", res.CrossISPBytes.Len())
	}
	var crossSum float64
	for _, p := range res.CrossISPBytes.Points {
		crossSum += p.V
	}
	if want := float64(res.TotalInterISP) * cfg.ChunkBytes(); crossSum != want {
		t.Fatalf("DES cross-ISP bytes %v != %v", crossSum, want)
	}
}

func TestDESDeterminism(t *testing.T) {
	cfg := desConfig()
	a, err := runDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalGrants != b.TotalGrants || a.TotalMissed != b.TotalMissed {
		t.Fatalf("DES non-deterministic: %d/%d vs %d/%d",
			a.TotalGrants, a.TotalMissed, b.TotalGrants, b.TotalMissed)
	}
}

// TestEnginesAgree is Theorem 1 exercised end to end: the message-level
// distributed auctions and the centralized primal-dual solver schedule the
// same world with (near-)equal social welfare. Small gaps are allowed — the
// distributed run bids with stale prices and ε rounding — but the engines
// must track each other closely.
func TestEnginesAgree(t *testing.T) {
	cfg := desConfig()
	fast, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	des, err := runDES(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw := fast.Welfare.Summarize().Mean
	dw := des.Welfare.Summarize().Mean
	if fw <= 0 {
		t.Fatalf("degenerate fast welfare %v", fw)
	}
	gap := math.Abs(fw-dw) / fw
	if gap > 0.05 {
		t.Fatalf("engines diverge: fast %v vs des %v (gap %.1f%%)", fw, dw, 100*gap)
	}
	// Identical worlds: population metrics must agree exactly.
	for i := range fast.Online.Points {
		if fast.Online.Points[i].V != des.Online.Points[i].V {
			t.Fatalf("population diverged at slot %d", i)
		}
	}
}

func TestDESInvalidConfig(t *testing.T) {
	cfg := desConfig()
	cfg.Slots = 0
	if _, err := runDES(cfg); err == nil {
		t.Fatal("invalid config should error")
	}
}
