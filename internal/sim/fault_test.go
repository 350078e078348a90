package sim

// fault_test.go pins the crash-stop fault axis: faulty runs are as
// deterministic as clean ones, an active injector whose sim axes are all off
// leaves the run bit-identical to the clean control (the fault streams are
// isolated), crash-stop shrinks a static population, and rejoin refills it.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sched"
)

func faultTestConfig() Config {
	cfg := testConfig()
	cfg.Scenario = ScenarioDynamic
	cfg.StaticPeers = 0
	cfg.Slots = 8
	cfg.ArrivalPerSec = 0.8
	return cfg
}

func runAuction(t *testing.T, cfg Config) *Results {
	t.Helper()
	res, err := Run(cfg, &sched.Auction{Epsilon: cfg.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultRunDeterministic: same seed, same fault spec → identical run.
func TestFaultRunDeterministic(t *testing.T) {
	cfg := faultTestConfig()
	cfg.Fault = fault.Spec{CrashProb: 0.1, RejoinAfterSlots: 2}
	a := runAuction(t, cfg)
	b := runAuction(t, cfg)
	if a.TotalGrants != b.TotalGrants || a.Crashes != b.Crashes || a.Rejoins != b.Rejoins ||
		a.Joined != b.Joined || a.Departed != b.Departed {
		t.Fatalf("fault run not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Welfare.Points {
		if a.Welfare.Points[i] != b.Welfare.Points[i] {
			t.Fatalf("welfare diverged at slot %d", i)
		}
	}
	if a.Crashes == 0 {
		t.Fatal("expected at least one crash at CrashProb=0.1 over 8 slots")
	}
}

// TestFaultStreamsIsolated: an active injector whose sim-facing axes are all
// off (only a live-path axis set) must leave the run bit-identical to the
// clean control — the fault streams never touch the model's randomness.
func TestFaultStreamsIsolated(t *testing.T) {
	cfg := faultTestConfig()
	clean := runAuction(t, cfg)
	cfg.Fault = fault.Spec{DelayMax: time.Millisecond} // live-only axis
	faulty := runAuction(t, cfg)
	if clean.TotalGrants != faulty.TotalGrants || clean.Joined != faulty.Joined ||
		clean.Departed != faulty.Departed || clean.TotalMissed != faulty.TotalMissed {
		t.Fatalf("injector with sim axes off perturbed the run:\nclean  %+v\nfaulty %+v", clean, faulty)
	}
	for i := range clean.Welfare.Points {
		if clean.Welfare.Points[i] != faulty.Welfare.Points[i] {
			t.Fatalf("welfare diverged at slot %d", i)
		}
	}
	if faulty.Crashes != 0 || faulty.Rejoins != 0 {
		t.Fatalf("no crash axis configured, got crashes=%d rejoins=%d", faulty.Crashes, faulty.Rejoins)
	}
}

// TestCrashStopShrinksStaticPopulation: crash-stop departs without the
// static-world respawn, so the online count decays below StaticPeers.
func TestCrashStopShrinksStaticPopulation(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = fault.Spec{CrashProb: 0.15}
	res := runAuction(t, cfg)
	if res.Crashes == 0 {
		t.Fatal("expected crashes at CrashProb=0.15")
	}
	if res.Rejoins != 0 {
		t.Fatalf("no rejoin configured, got %d", res.Rejoins)
	}
	last := res.Online.Points[len(res.Online.Points)-1]
	if int(last.V) >= cfg.StaticPeers {
		t.Fatalf("online population %v did not shrink below the static %d", last.V, cfg.StaticPeers)
	}
}

// TestRejoinRefillsPopulation: every crash early enough in the run respawns
// RejoinAfterSlots later, and rejoins count into Joined.
func TestRejoinRefillsPopulation(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = fault.Spec{CrashProb: 0.15, RejoinAfterSlots: 1}
	res := runAuction(t, cfg)
	if res.Crashes == 0 {
		t.Fatal("expected crashes")
	}
	if res.Rejoins == 0 {
		t.Fatal("expected rejoins with RejoinAfterSlots=1")
	}
	if res.Rejoins > res.Crashes {
		t.Fatalf("rejoins %d exceed crashes %d", res.Rejoins, res.Crashes)
	}
	noRejoin := cfg
	noRejoin.Fault.RejoinAfterSlots = 0
	base := runAuction(t, noRejoin)
	lastWith := res.Online.Points[len(res.Online.Points)-1].V
	lastWithout := base.Online.Points[len(base.Online.Points)-1].V
	if lastWith < lastWithout {
		t.Fatalf("rejoin run ended with %v online, below the crash-only run's %v", lastWith, lastWithout)
	}
}

// TestDESRunsFaultConfig: crash-stop faults run under the message-level
// auction. Crashed peers' nodes shut down with them, and since crashes are
// drawn on their own stream the population follows the centralized
// auction's slot for slot.
func TestDESRunsFaultConfig(t *testing.T) {
	cfg := desConfig()
	cfg.Fault = fault.Spec{CrashProb: 0.1}
	res, err := Run(cfg, &DES{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Fatal("expected crashes")
	}
	if res.TotalGrants == 0 {
		t.Fatal("distributed auction granted nothing under crash faults")
	}
	central := runAuction(t, cfg)
	if res.Crashes != central.Crashes || !reflect.DeepEqual(res.Online.Values(), central.Online.Values()) {
		t.Fatalf("population diverged from the centralized auction's: des %d crashes %v, auction %d crashes %v",
			res.Crashes, res.Online.Values(), central.Crashes, central.Online.Values())
	}
}

func TestConfigValidateRejectsBadFault(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = fault.Spec{CrashProb: 2}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate must reject CrashProb > 1")
	}
}
