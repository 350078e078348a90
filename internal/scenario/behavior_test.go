package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/behavior"
	"repro/internal/isp"
)

// honestPathGolden pins every registered scenario's metric fingerprint at
// seed 42 to the values captured immediately before the behavior axis was
// added (Heavy specs shrunken exactly as TestGoldenDeterminism shrinks
// them, the live scenario excluded as timing-dependent). With Behavior
// unset no runtime is compiled and no extra randomness is drawn, so the
// axis must be a bit-identical no-op on the honest path — across the fast
// engine, warm-start (churn-warm) and the sharded orchestrator
// (mega-swarm, sharded-churn). Exact float equality is deliberate.
var honestPathGolden = map[string]map[string]float64{
	"assignment": {
		"assigned":      54.666666666666664,
		"bids":          193.66666666666666,
		"exact_welfare": 361.50777814098836,
		"gap_pct":       0,
		"iterations":    239,
		"stalls":        0,
		"welfare":       361.50777814098836,
	},
	"asymmetric-cost": {
		"cross_isp_chunks": 24154,
		"cross_isp_gb":     0.19786956799999997,
		"departed":         67,
		"fairness":         0.9970670353863076,
		"grants":           45387,
		"inter_isp":        0.5321788177231366,
		"joined":           155,
		"miss_rate":        0.11443424949773202,
		"payments":         2436.6167714856515,
		"transit_usd":      0.19786956799999997,
		"welfare_final":    4284.510601684767,
		"welfare_per_slot": 4547.73802525306,
		"welfare_total":    36381.904202024474,
	},
	"churn": {
		"cross_isp_chunks": 16229,
		"cross_isp_gb":     0.13294796799999997,
		"departed":         26,
		"fairness":         0.9999968442439822,
		"grants":           42369,
		"inter_isp":        0.3830394864169558,
		"joined":           111,
		"miss_rate":        0.0038421052631578945,
		"payments":         1818.5165897272336,
		"transit_usd":      0.13294796799999997,
		"welfare_final":    4327.649032246071,
		"welfare_per_slot": 2721.064259405863,
		"welfare_total":    27210.642594058627,
	},
	"churn-warm": {
		"cross_isp_chunks": 16228,
		"cross_isp_gb":     0.13293977599999998,
		"departed":         26,
		"fairness":         0.9999968442439822,
		"grants":           42368,
		"inter_isp":        0.3830249244712991,
		"joined":           111,
		"miss_rate":        0.0038421052631578945,
		"payments":         1797.7914978907143,
		"transit_usd":      0.13293977599999998,
		"welfare_final":    4332.619452455009,
		"welfare_per_slot": 2722.1735090023294,
		"welfare_total":    27221.735090023292,
	},
	"diurnal": {
		"cross_isp_chunks": 17139,
		"cross_isp_gb":     0.140402688,
		"departed":         5,
		"fairness":         0.9999116284136431,
		"grants":           43580,
		"inter_isp":        0.3932767324460762,
		"joined":           98,
		"miss_rate":        0.011665004985044865,
		"payments":         1035.2595691961196,
		"transit_usd":      0.140402688,
		"welfare_final":    3833.3729349363653,
		"welfare_per_slot": 2233.4878459604797,
		"welfare_total":    26801.854151525757,
	},
	"flash-crowd": {
		"cross_isp_chunks": 33145,
		"cross_isp_gb":     0.27152383999999996,
		"departed":         10,
		"fairness":         0.9999630184811659,
		"grants":           116767,
		"inter_isp":        0.28385588393981176,
		"joined":           199,
		"miss_rate":        0.005945745076179859,
		"payments":         7334.326921350034,
		"transit_usd":      0.27152383999999996,
		"welfare_final":    10549.136578008704,
		"welfare_per_slot": 6813.66378116273,
		"welfare_total":    81763.96537395274,
	},
	"isp-peering": {
		"cross_isp_chunks": 10069,
		"cross_isp_gb":     0.082485248,
		"departed":         74,
		"fairness":         0.999909610171012,
		"grants":           56735,
		"inter_isp":        0.17747422226139067,
		"joined":           154,
		"miss_rate":        0.026645566126272013,
		"payments":         5673.370464577885,
		"transit_usd":      0.14850457600000003,
		"welfare_final":    4474.520017171006,
		"welfare_per_slot": 5759.41085207777,
		"welfare_total":    46075.28681662216,
	},
	"large-scale": {
		"cross_isp_chunks": 16091,
		"cross_isp_gb":     0.131817472,
		"departed":         55,
		"fairness":         0.9998130838821602,
		"grants":           49045,
		"inter_isp":        0.32808645121826896,
		"joined":           755,
		"miss_rate":        0.06349496055646812,
		"payments":         543.4493417544536,
		"transit_usd":      0.131817472,
		"welfare_final":    27180.333336488828,
		"welfare_per_slot": 27225.35674115497,
		"welfare_total":    108901.42696461988,
	},
	"locality-sweep": {
		"cross_isp_chunks": 5345,
		"cross_isp_gb":     0.04378624000000001,
		"departed":         104,
		"fairness":         0.9999981529435022,
		"grants":           80662,
		"inter_isp":        0.06626416404254791,
		"joined":           212,
		"miss_rate":        0.004358308605341247,
		"payments":         8980.874837965872,
		"transit_usd":      0.04378624000000001,
		"welfare_final":    7012.732394226439,
		"welfare_per_slot": 8102.29693717438,
		"welfare_total":    64818.37549739504,
	},
	"mega-swarm": {
		"cross_isp_chunks": 4690,
		"cross_isp_gb":     0.03842048,
		"departed":         8,
		"fairness":         0.999969163115296,
		"grants":           9950,
		"inter_isp":        0.471356783919598,
		"joined":           1508,
		"miss_rate":        0.056838722635067285,
		"payments":         54.064989173659356,
		"shard_cut_edges":  0,
		"shard_migrations": 0,
		"shards_born":      252,
		"shards_mean":      251.5,
		"shards_retired":   0,
		"transit_usd":      0.03842048,
		"welfare_final":    16819.791375020035,
		"welfare_per_slot": 16802.009962406915,
		"welfare_total":    33604.01992481383,
	},
	"quickstart": {
		"cross_isp_chunks": 7711,
		"cross_isp_gb":     0.06316851200000001,
		"departed":         71,
		"fairness":         0.9999952266445127,
		"grants":           22009,
		"inter_isp":        0.3503566722704348,
		"joined":           131,
		"miss_rate":        0.00697707532393564,
		"payments":         2029.6666227797782,
		"transit_usd":      0.06316851200000001,
		"welfare_final":    2636.551529728893,
		"welfare_per_slot": 3004.5574793324945,
		"welfare_total":    18027.344875994968,
	},
	"sharded-churn": {
		"cross_isp_chunks": 2870,
		"cross_isp_gb":     0.023511039999999997,
		"departed":         2,
		"fairness":         0.9999997581304283,
		"grants":           4440,
		"inter_isp":        0.6463963963963963,
		"joined":           487,
		"miss_rate":        0.01891891891891892,
		"payments":         0,
		"shard_cut_edges":  0,
		"shard_migrations": 0,
		"shards_born":      61,
		"shards_mean":      34.4,
		"shards_retired":   0,
		"transit_usd":      0.023511039999999997,
		"welfare_final":    2673.97500025029,
		"welfare_per_slot": 1429.8858580905662,
		"welfare_total":    14298.858580905662,
	},
	"solver-parallel": {
		"assigned":      220.5,
		"bids":          1056,
		"exact_welfare": 1380.8463820563122,
		"gap_pct":       0,
		"iterations":    42,
		"stalls":        0,
		"welfare":       1380.8463820563122,
	},
	"vodstreaming": {
		"cross_isp_chunks": 20715,
		"cross_isp_gb":     0.16969728,
		"departed":         124,
		"fairness":         0.9999950621768089,
		"grants":           77922,
		"inter_isp":        0.26584276584276584,
		"joined":           228,
		"miss_rate":        0.005164363217960211,
		"payments":         4896.769067882857,
		"transit_usd":      0.16969728,
		"welfare_final":    4273.505435797154,
		"welfare_per_slot": 5276.584568667659,
		"welfare_total":    52765.84568667659,
	},
}

// metricsAddedThisAxis are keys runSim grew alongside the behavior axis —
// legitimate additions the pre-axis capture cannot contain. Anything else
// unexpected in a run's metric map fails the golden.
var metricsAddedThisAxis = map[string]bool{"missed": true}

// postAxisScenarios were registered after the behavior-axis capture; they are
// pinned by their own goldens (cdn_test.go) rather than this fingerprint.
var postAxisScenarios = map[string]bool{
	"cdn-assist":      true,
	"flash-crowd-cdn": true,
	// Registered with the fault-injection axis; pinned by fault_test.go.
	"chaos-churn": true,
}

// TestHonestPathGolden is the honest no-op regression golden (the
// TestRemovalSchemeGolden scheme at registry level): every scenario that
// existed before the behavior axis must reproduce its pre-axis fingerprint
// exactly when Behavior is unset.
func TestHonestPathGolden(t *testing.T) {
	const seed = 42
	covered := make(map[string]bool)
	for _, spec := range All() {
		spec := spec
		if spec.Kind == KindLive || !spec.Behavior.IsZero() || postAxisScenarios[spec.Name] {
			continue
		}
		want, ok := honestPathGolden[spec.Name]
		if !ok {
			t.Errorf("scenario %q has no pre-axis fingerprint; capture one or mark it post-axis", spec.Name)
			continue
		}
		covered[spec.Name] = true
		boundHeavy(t, &spec, 500, 10)
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := spec.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range want {
				if got := res.Metrics[k]; got != v {
					t.Errorf("%s: %s = %v, want exactly %v", spec.Name, k, got, v)
				}
			}
			for k := range res.Metrics {
				if _, pinned := want[k]; !pinned && !metricsAddedThisAxis[k] {
					t.Errorf("%s: unexpected new metric %q — extend the golden deliberately", spec.Name, k)
				}
			}
			if res.Degradation != nil {
				t.Errorf("%s: honest run carries a degradation report", spec.Name)
			}
		})
	}
	for name := range honestPathGolden {
		if !covered[name] {
			t.Errorf("golden names %q but the registry no longer has it (honest)", name)
		}
	}
}

// TestEquilibriumDegradationGolden pins acceptance criterion (b): at seed
// 42 the honest equilibrium weakly dominates the free-rider, clique, shader
// and throttle misbehaviors on (effective welfare, effective transit USD),
// and every misbehaving run carries the degradation report. The shader and
// throttle cases derive from the free-rider preset's world through the
// sweep vocabulary, exactly as a batch would build them.
func TestEquilibriumDegradationGolden(t *testing.T) {
	const seed = 42
	shade, _ := Get("free-rider-sweep")
	shade.Name = "shade-attack"
	shade.Behavior = behavior.Spec{}
	if err := ApplyParam(&shade, "shade-factor", 0.5); err != nil {
		t.Fatal(err)
	}
	throttle, _ := Get("free-rider-sweep")
	throttle.Name = "throttle-attack"
	throttle.Behavior = behavior.Spec{}
	if err := ApplyParam(&throttle, "throttle-cap", 0.05); err != nil {
		t.Fatal(err)
	}
	free, _ := Get("free-rider-sweep")
	clique, _ := Get("clique-attack")

	for _, spec := range []Spec{free, clique, shade, throttle} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := spec.Run(seed)
			if err != nil {
				t.Fatal(err)
			}
			d := res.Degradation
			if d == nil {
				t.Fatal("misbehaving run has no degradation report")
			}
			if !d.HonestWeaklyDominates() {
				t.Fatalf("honest equilibrium does not dominate %s: honest %+v vs adversarial %+v",
					d.Behavior, d.Honest, d.Adversarial)
			}
			if d.WelfareLoss <= 0 {
				t.Errorf("welfare loss %v not positive under %s", d.WelfareLoss, d.Behavior)
			}
			if d.TransitDeltaUSD <= 0 {
				t.Errorf("transit delta %v not positive under %s", d.TransitDeltaUSD, d.Behavior)
			}
			if len(d.PerISP) != spec.Sim.NumISPs {
				t.Errorf("per-ISP deltas cover %d ISPs, want %d", len(d.PerISP), spec.Sim.NumISPs)
			}
			for _, k := range []string{"honest_welfare_total", "welfare_loss", "welfare_loss_pct", "transit_delta_usd"} {
				if _, ok := res.Metrics[k]; !ok {
					t.Errorf("metric %q missing from misbehaving run", k)
				}
			}
			// The degradation report must ride along in the JSON export.
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(blob), `"Degradation"`) ||
				!strings.Contains(string(blob), `"PerISP"`) {
				t.Errorf("JSON export lacks the degradation report: %s", blob[:min(len(blob), 200)])
			}
		})
	}
}

// TestBehaviorSweepParams covers the four behavior sweep keys: valid values
// land in the spec, invalid ones error, and the unknown-key message names
// them.
func TestBehaviorSweepParams(t *testing.T) {
	spec, _ := Get("quickstart")
	if err := ApplyParam(&spec, "free-rider-frac", 0.3); err != nil {
		t.Fatal(err)
	}
	if err := ApplyParam(&spec, "shade-factor", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := ApplyParam(&spec, "clique-size", 6); err != nil {
		t.Fatal(err)
	}
	if err := ApplyParam(&spec, "throttle-cap", 0.4); err != nil {
		t.Fatal(err)
	}
	b := spec.Behavior
	if b.FreeRiderFrac != 0.3 || b.ShadeFactor != 0.7 || b.CliqueSize != 6 {
		t.Fatalf("sweep params did not land: %+v", b)
	}
	if len(b.Throttle.ISPs) != 1 || b.Throttle.ISPs[0] != 0 || b.Throttle.Cap != 0.4 {
		t.Fatalf("throttle-cap should default the ISP set to {0}: %+v", b.Throttle)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("swept spec invalid: %v", err)
	}

	for key, v := range map[string]float64{
		"free-rider-frac": 1.2, "shade-factor": -0.5, "clique-size": -1, "throttle-cap": 2,
	} {
		if err := ApplyParam(&spec, key, v); err == nil {
			t.Errorf("%s=%v accepted", key, v)
		}
	}
	err := ApplyParam(&spec, "no-such-param", 1)
	if err == nil || !strings.Contains(err.Error(), "free-rider-frac") {
		t.Errorf("unknown-key error should list the behavior params, got: %v", err)
	}
}

// TestBehaviorRejectedOutsideSim pins that behavior specs are a
// KindSim-only concept.
func TestBehaviorRejectedOutsideSim(t *testing.T) {
	transport, _ := Get("assignment")
	transport.Behavior = behavior.Spec{FreeRiderFrac: 0.5}
	if err := transport.Validate(); err == nil {
		t.Error("transport spec accepted a behavior policy")
	}
	live, _ := Get("livenet")
	live.Behavior = behavior.Spec{Throttle: isp.Throttle{ISPs: []int{0}, Cap: 0.5}}
	if err := live.Validate(); err == nil {
		t.Error("live spec accepted a behavior policy")
	}
}

// TestBehaviorBatchSweep runs a tiny free-rider-frac grid end to end: the
// zero point must match the honest preset world and carry no degradation
// metrics, the non-zero point must carry them.
func TestBehaviorBatchSweep(t *testing.T) {
	spec, _ := Get("free-rider-sweep")
	spec.Behavior = behavior.Spec{}
	b := Batch{
		Spec:  spec,
		Seeds: []uint64{42},
		Grids: []Grid{{Param: "free-rider-frac", Values: []float64{0, 0.3}}},
	}
	res, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(res.Records))
	}
	for _, rec := range res.Records {
		if rec.Err != "" {
			t.Fatalf("run failed: %s", rec.Err)
		}
		_, hasLoss := rec.Metrics["welfare_loss"]
		if frac := rec.Point["free-rider-frac"]; frac == 0 && hasLoss {
			t.Error("honest grid point carries degradation metrics")
		} else if frac > 0 && !hasLoss {
			t.Error("misbehaving grid point lacks degradation metrics")
		}
	}
}
