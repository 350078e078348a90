package scenario

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestIncrementalPipelineEqualsRebuiltPerScenario is the zero-rebuild
// pipeline's registry-wide golden: for every registered sim scenario, the
// incremental slot pipeline (sim.Run — persistent builder instance, carried
// candidate lists, delta-fed schedulers, scratch-buffer transfers) must
// produce results deep-equal to the from-scratch reference pipeline
// (sim.RunRebuild — fresh instances and maps every round, no deltas):
// identical schedules, bit-equal welfare and traffic on every slot. Heavy
// presets run shrunken, same code path.
func TestIncrementalPipelineEqualsRebuiltPerScenario(t *testing.T) {
	const seed = 42
	for _, spec := range All() {
		spec := spec
		if spec.Kind != KindSim {
			continue
		}
		boundHeavy(t, &spec, 400, 8)
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			cfg := spec.Sim
			cfg.Seed = seed
			incScheduler, err := spec.Scheduler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := sim.Run(cfg, incScheduler)
			if err != nil {
				t.Fatal(err)
			}
			refScheduler, err := spec.Scheduler(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sim.RunRebuild(cfg, refScheduler)
			if err != nil {
				t.Fatal(err)
			}
			if inc.TotalGrants == 0 {
				t.Fatal("run scheduled nothing — the equivalence is vacuous")
			}
			if !reflect.DeepEqual(inc, ref) {
				t.Fatalf("incremental pipeline diverges from the rebuilt reference:\n"+
					" inc: grants=%d welfare[0]=%v missed=%d\n ref: grants=%d welfare[0]=%v missed=%d",
					inc.TotalGrants, inc.Welfare.Points[0].V, inc.TotalMissed,
					ref.TotalGrants, ref.Welfare.Points[0].V, ref.TotalMissed)
			}
		})
	}
}
