package core_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fingerprinter is a sim scheduler that solves every round it is handed
// with core.SolveAuction and folds each result into one fingerprint,
// granting through sched.Auction so the run continues exactly as an
// auction run would.
type fingerprinter struct {
	sched.Auction
	h        hash.Hash64
	requests int
}

func (f *fingerprinter) Schedule(in *sched.Instance) (*sched.Result, error) {
	p := core.NewProblem()
	for _, u := range in.Uploaders {
		if _, err := p.AddSink(u.Capacity); err != nil {
			return nil, err
		}
	}
	for i := range in.Requests {
		req := &in.Requests[i]
		r := p.AddRequest()
		for k, ui := range in.Rows(i) {
			if err := p.AddEdge(r, core.SinkID(ui), req.Value-req.Candidates[k].Cost); err != nil {
				return nil, err
			}
		}
	}
	res, err := core.SolveAuction(p, core.AuctionOptions{Epsilon: f.Epsilon})
	if err != nil {
		return nil, err
	}
	core.Fingerprint(f.h, res)
	f.requests += p.NumRequests()
	return f.Auction.Schedule(in)
}

// TestSolveAuctionPresetFingerprint pins the cold auction on every round of
// four preset worlds — cdn-assist at 400 peers, churn, vodstreaming and
// flash-crowd — to fingerprints recorded with the standalone Gauss–Seidel
// bidding loop the cold solve replaced. The requests count guards the
// capture itself: a world that stopped producing the same rounds fails
// before its fingerprint is compared.
func TestSolveAuctionPresetFingerprint(t *testing.T) {
	cases := []struct {
		preset   string
		peers    int
		slots    int
		requests int
		want     string
	}{
		{"cdn-assist", 400, 6, 661916, "7c2858073aa0de72"},
		{"churn", 0, 0, 81622, "db00f3af0d5fae93"},
		{"vodstreaming", 0, 0, 124835, "86b50ae2fa5584f3"},
		{"flash-crowd", 0, 0, 176898, "80aa4b24029a7bcc"},
	}
	for _, tc := range cases {
		t.Run(tc.preset, func(t *testing.T) {
			spec, ok := scenario.Get(tc.preset)
			if !ok {
				t.Fatalf("%s not registered", tc.preset)
			}
			cfg := spec.Sim
			cfg.Seed = 1
			if tc.slots > 0 {
				cfg.Slots = tc.slots
			}
			if tc.peers > 0 {
				cfg.StaticPeers = tc.peers
			}
			f := &fingerprinter{Auction: sched.Auction{Epsilon: cfg.Epsilon}, h: fnv.New64a()}
			if _, err := sim.Run(cfg, f); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%016x", f.h.Sum64())
			t.Logf("%s: %d requests, fingerprint %s", tc.preset, f.requests, got)
			if f.requests != tc.requests {
				t.Fatalf("%s: %d requests over %d slots, want %d", tc.preset, f.requests, cfg.Slots, tc.requests)
			}
			if got != tc.want {
				t.Fatalf("%s: cold auction fingerprint %s, want %s", tc.preset, got, tc.want)
			}
		})
	}
}
