package sim_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// TestRoundValuesMatchValuation pins the world's per-round valuation memo:
// on every bidding round of four presets (cdn-assist grown to 400 peers
// over 6 slots, churn, flash-crowd and clique-attack, whose clique reports
// 4× its true values), every request's Value must equal the valuation of
// its own deadline computed directly, then passed through the behavior
// runtime's ReportedValue. Each preset bids several rounds per slot, so τ
// moves between rounds and a memo entry kept from an earlier round would
// show. Run starts every arrival's playback in the first slot it bids in,
// so each preset's world is also built once with arrivals that have not
// started, beside the static presets' started peers: the memo must not
// serve them. The check runs on one goroutine, so under the race detector
// cdn-assist keeps its 60 peers: at 400 the detector adds six seconds and
// finds nothing.
func TestRoundValuesMatchValuation(t *testing.T) {
	presets := []struct {
		name string
		grow func(*sim.Config)
	}{
		{"cdn-assist", func(c *sim.Config) {
			c.Slots = 6
			if !raceEnabled {
				c.StaticPeers = 400
			}
		}},
		{"churn", nil},
		{"flash-crowd", nil},
		{"clique-attack", nil},
	}
	for _, ps := range presets {
		t.Run(ps.name, func(t *testing.T) {
			spec, ok := scenario.Get(ps.name)
			if !ok {
				t.Fatalf("no preset %q", ps.name)
			}
			cfg := spec.Sim
			cfg.Seed = 1
			cfg.Behavior = spec.Behavior
			if ps.grow != nil {
				ps.grow(&cfg)
			}
			if cfg.BidRoundsPerSlot < 2 {
				t.Fatalf("%d bidding round per slot; τ never moves", cfg.BidRoundsPerSlot)
			}
			var started, prePlayback, rounds int
			last := [2]int{-1, -1}
			check := func(r sim.RoundRequest) {
				if got := r.Request.Value; got != r.Want {
					t.Fatalf("slot %d round %d: peer %d chunk %v (deadline %v, started %v) valued %v, want %v",
						r.Slot, r.Round, r.Request.Peer, r.Request.Chunk, r.Request.Deadline, r.Started, got, r.Want)
				}
				if r.Started {
					started++
				} else {
					prePlayback++
				}
				if at := [2]int{r.Slot, r.Round}; at != last {
					last = at
					rounds++
				}
			}
			if err := sim.RunRoundRequests(cfg, check); err != nil {
				t.Fatal(err)
			}
			if started == 0 || rounds <= cfg.Slots {
				t.Fatalf("%d started-peer requests over %d rounds; the check is vacuous", started, rounds)
			}
			if err := sim.JoinRoundRequests(cfg, 20, check); err != nil {
				t.Fatal(err)
			}
			if prePlayback == 0 {
				t.Fatal("no request of a peer before its playback was valued")
			}
		})
	}
}
