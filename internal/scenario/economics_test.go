package scenario

import (
	"math"
	"testing"

	"repro/internal/economics"
	"repro/internal/isp"
	"repro/internal/tracker"
)

// goldenSeed pins the inter-ISP economics assertions to one reproducible
// world; TestGoldenDeterminism already guarantees any seed gives the same
// answer across runs.
const goldenSeed = 42

// TestAuctionWeaklyDominatesUniformRandom is the headline acceptance golden:
// on the locality-sweep workload, the primal-dual auction weakly dominates
// the uniform-random baseline (random scheduler, ISP-blind neighbor
// selection) on the welfare-vs-transit plane — no less welfare AND no more
// transit cost — so it sits on the Pareto frontier of the two. The margins
// are enormous (the auction's transit bill is ~10× smaller at vastly higher
// welfare), so this pin is robust to calibration drift; if it ever trips,
// the scheduler has genuinely stopped being ISP-aware.
func TestAuctionWeaklyDominatesUniformRandom(t *testing.T) {
	spec, ok := Get("locality-sweep")
	if !ok {
		t.Fatal("locality-sweep not registered")
	}
	auction, err := spec.Run(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	uniform := spec.WithSolver(SolverRandom)
	uniform.Sim.Locality = tracker.Policy{} // ISP-blind neighbor selection
	random, err := uniform.Run(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	a := auction.ParetoPoint("auction")
	r := random.ParetoPoint("random+uniform")
	if !economics.WeaklyDominates(a, r) {
		t.Fatalf("auction %+v does not weakly dominate uniform-random %+v", a, r)
	}
	if !economics.StrictlyDominates(a, r) {
		t.Fatalf("auction %+v ties uniform-random %+v on both axes — the margin collapsed", a, r)
	}
	front := economics.Frontier([]economics.Point{a, r})
	if len(front) != 1 || front[0].Label != "auction" {
		t.Fatalf("frontier = %v, want the auction alone", front)
	}
}

// TestISPBiasReducesCrossISPBytes pins Le Blond et al.'s claim in this
// testbed: biased neighbor selection alone — same seed, same world, same
// (network-agnostic random) scheduler — cuts cross-ISP traffic. The bias-0.9
// tracker should send strictly less traffic across ISP boundaries than the
// uniform tracker, and the hard cross-ISP cap should cut deeper still.
func TestISPBiasReducesCrossISPBytes(t *testing.T) {
	spec, ok := Get("locality-sweep")
	if !ok {
		t.Fatal("locality-sweep not registered")
	}
	base := spec.WithSolver(SolverRandom)
	run := func(mutate func(*Spec)) *Result {
		t.Helper()
		s := base
		mutate(&s)
		r, err := s.Run(goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	uniform := run(func(s *Spec) { s.Sim.Locality = tracker.Policy{} })
	biased := run(func(s *Spec) {
		s.Sim.Locality = tracker.Policy{Kind: tracker.PolicyISPBias, BiasP: 0.9}
	})
	capped := run(func(s *Spec) {
		s.Sim.Locality = tracker.Policy{Kind: tracker.PolicyCrossCap, MaxCross: 0}
	})
	cu := uniform.Metrics["cross_isp_chunks"]
	cb := biased.Metrics["cross_isp_chunks"]
	cc := capped.Metrics["cross_isp_chunks"]
	if cb >= cu {
		t.Errorf("ISP-biased locality did not reduce cross-ISP chunks: biased %v >= uniform %v", cb, cu)
	}
	// MaxCross 0 leaves only seeds as cross-ISP uploaders — the deepest cut.
	if cc >= cb {
		t.Errorf("zero cross-ISP cap did not cut below bias: capped %v >= biased %v", cc, cb)
	}
	// Transit bills follow the byte counts under the flat model.
	if biased.Metrics["transit_usd"] >= uniform.Metrics["transit_usd"] {
		t.Errorf("biased transit %v >= uniform transit %v",
			biased.Metrics["transit_usd"], uniform.Metrics["transit_usd"])
	}
}

// TestTransitMetricsConsistent checks the settlement metrics agree with the
// traffic ledger they were priced from: GB = chunks × chunk size, and the
// flat $1/GB model of locality-sweep bills exactly the cross-ISP volume.
func TestTransitMetricsConsistent(t *testing.T) {
	spec, ok := Get("locality-sweep")
	if !ok {
		t.Fatal("locality-sweep not registered")
	}
	res, err := spec.Run(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic == nil || res.Settlement == nil {
		t.Fatal("sim run carries no traffic economics")
	}
	chunks := res.Metrics["cross_isp_chunks"]
	if got := float64(res.Traffic.Inter()); got != chunks {
		t.Errorf("matrix inter %v != cross_isp_chunks %v", got, chunks)
	}
	wantGB := chunks * spec.Sim.ChunkBytes() / 1e9
	if gb := res.Metrics["cross_isp_gb"]; math.Abs(gb-wantGB) > 1e-9 {
		t.Errorf("cross_isp_gb %v != %v", gb, wantGB)
	}
	// locality-sweep bills flat $1/GB: transit_usd == cross_isp_gb.
	if usd := res.Metrics["transit_usd"]; math.Abs(usd-res.Metrics["cross_isp_gb"]) > 1e-9 {
		t.Errorf("transit_usd %v != cross_isp_gb %v under flat $1/GB", usd, res.Metrics["cross_isp_gb"])
	}
	var accountSum float64
	for _, a := range res.Settlement.Accounts {
		accountSum += a.TransitUSD
	}
	if math.Abs(accountSum-res.Settlement.TransitUSD) > 1e-9 {
		t.Errorf("per-ISP bills %v != total %v", accountSum, res.Settlement.TransitUSD)
	}
}

// TestPeeringPresetSettlesPairsFree pins isp-peering's settlement structure:
// the peered pairs' egress shows up as PeeredGB and bills nothing, while
// unpeered ISPs pay for every cross-ISP GB.
func TestPeeringPresetSettlesPairsFree(t *testing.T) {
	spec, ok := Get("isp-peering")
	if !ok {
		t.Fatal("isp-peering not registered")
	}
	res, err := spec.Run(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Settlement
	if s == nil {
		t.Fatal("no settlement")
	}
	if s.Model != "peering+tiered" {
		t.Fatalf("model = %q", s.Model)
	}
	// Each ISP's settlement-free volume is exactly its egress over the
	// declared peering links ({0,1} and {2,3}); everyone else's is zero.
	chunkGB := spec.Sim.ChunkBytes() / 1e9
	peeredDst := map[isp.ID]isp.ID{0: 1, 1: 0, 2: 3, 3: 2}
	var totalPeered float64
	for _, a := range s.Accounts {
		want := 0.0
		if dst, ok := peeredDst[a.ISP]; ok {
			want = float64(res.Traffic.At(a.ISP, dst)) * chunkGB
		}
		if math.Abs(a.PeeredGB-want) > 1e-9 {
			t.Errorf("ISP %d peered volume %v, matrix says %v", a.ISP, a.PeeredGB, want)
		}
		totalPeered += a.PeeredGB
	}
	if totalPeered <= 0 {
		t.Error("no traffic crossed a peering link — the preset exercises nothing")
	}
	// A peered pair's mutual traffic is exactly the free share: re-price the
	// same matrix under the same tiers without peering and the bill must
	// rise (the peered volume's cost comes back).
	flatTiers := economics.TransitSpec{Kind: "tiered", Tiers: economics.DefaultTiers()}
	model, err := flatTiers.Build()
	if err != nil {
		t.Fatal(err)
	}
	unpeered, err := economics.Settle(res.Traffic, spec.Sim.ChunkBytes(), model)
	if err != nil {
		t.Fatal(err)
	}
	if saving := s.SavingsVs(unpeered); saving <= 0 {
		// SavingsVs(baseline) = baseline − this; peering must bill less.
		t.Errorf("peering settlement %v not below unpeered %v", s.TransitUSD, unpeered.TransitUSD)
	}
}

// TestLocalitySweepParams covers the new sweep vocabulary end to end.
func TestLocalitySweepParams(t *testing.T) {
	spec, _ := Get("locality-sweep")
	if err := ApplyParam(&spec, "locality", 0.5); err != nil {
		t.Fatal(err)
	}
	if spec.Sim.Locality.Kind != tracker.PolicyISPBias || spec.Sim.Locality.BiasP != 0.5 {
		t.Fatalf("locality param applied %+v", spec.Sim.Locality)
	}
	if err := ApplyParam(&spec, "locality", 0); err != nil {
		t.Fatal(err)
	}
	if spec.Sim.Locality.Kind != tracker.PolicyUniform {
		t.Fatalf("locality=0 should restore uniform, got %+v", spec.Sim.Locality)
	}
	if err := ApplyParam(&spec, "cross-cap", 3); err != nil {
		t.Fatal(err)
	}
	if spec.Sim.Locality.Kind != tracker.PolicyCrossCap || spec.Sim.Locality.MaxCross != 3 {
		t.Fatalf("cross-cap param applied %+v", spec.Sim.Locality)
	}
	if err := ApplyParam(&spec, "cross-cap", -1); err != nil {
		t.Fatal(err)
	}
	if spec.Sim.Locality.Kind != tracker.PolicyUniform {
		t.Fatalf("cross-cap=-1 should restore uniform, got %+v", spec.Sim.Locality)
	}
	if err := ApplyParam(&spec, "transit-cost", 2.5); err != nil {
		t.Fatal(err)
	}
	if spec.Transit.USDPerGB != 2.5 {
		t.Fatalf("transit-cost param applied %+v", spec.Transit)
	}
	for _, bad := range []struct {
		key string
		v   float64
	}{{"locality", -0.5}, {"locality", 1.5}, {"transit-cost", -1}} {
		if err := ApplyParam(&spec, bad.key, bad.v); err == nil {
			t.Errorf("%s=%v should be rejected", bad.key, bad.v)
		}
	}
	// A tier schedule has no single rate: the flat-rate parameter must be
	// rejected, not silently ignored (isp-peering prices through tiers).
	tiered := mustGet(t, "isp-peering")
	if err := ApplyParam(&tiered, "transit-cost", 2); err == nil {
		t.Error("transit-cost on a tiered spec should be rejected")
	}
	// transit-cost=0 is the sweep's zero anchor: genuinely free transit,
	// not a silent reset to the default rate.
	free := mustGet(t, "locality-sweep")
	if err := ApplyParam(&free, "transit-cost", 0); err != nil {
		t.Fatal(err)
	}
	freeRes, err := free.Run(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if usd := freeRes.Metrics["transit_usd"]; usd != 0 {
		t.Errorf("transit-cost=0 still billed %v", usd)
	}
	if freeRes.Metrics["cross_isp_gb"] <= 0 {
		t.Error("free transit should still record cross-ISP volume")
	}

	// Typo'd peering pairs are caught at validation, not silently billed.
	badPeer := mustGet(t, "isp-peering")
	badPeer.Transit.Peered = [][2]int{{0, 9}}
	if err := badPeer.Validate(); err == nil {
		t.Error("peered ISP outside the sim's range should be rejected")
	}

	// The sweep changes outcomes: a transit-cost sweep scales the bill
	// linearly on the same traffic.
	batch := Batch{
		Spec:  mustGet(t, "locality-sweep"),
		Seeds: []uint64{goldenSeed},
		Grids: []Grid{{Param: "transit-cost", Values: []float64{1, 2}}},
	}
	out, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Summaries) != 2 {
		t.Fatalf("%d summaries", len(out.Summaries))
	}
	t1 := out.Summaries[0].Metrics["transit_usd"].Mean
	t2 := out.Summaries[1].Metrics["transit_usd"].Mean
	if math.Abs(t2-2*t1) > 1e-9 || t1 <= 0 {
		t.Fatalf("doubling the rate did not double the bill: %v vs %v", t1, t2)
	}
}

// TestShardedRunCrossISPSeriesRecombines checks the sharded scheduler's run
// still satisfies the economics recombination invariants: slot ledgers merge
// into the run ledger and the cross-ISP bytes series matches it (the
// cluster-level per-shard exactness is pinned in internal/cluster).
func TestShardedRunCrossISPSeriesRecombines(t *testing.T) {
	spec := mustGet(t, "locality-sweep")
	spec.Solver = SolverAuctionSharded
	spec.Sharding = Sharding{Workers: 2}
	res, err := spec.Run(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic == nil {
		t.Fatal("no traffic matrix")
	}
	wantBytes := float64(res.Traffic.Inter()) * spec.Sim.ChunkBytes()
	var gotBytes float64
	for _, s := range res.Series {
		if s.Name == "auction-sharded/cross-isp-bytes" {
			for _, p := range s.Points {
				gotBytes += p.V
			}
		}
	}
	if gotBytes != wantBytes {
		t.Fatalf("cross-isp-bytes series sums to %v, matrix says %v", gotBytes, wantBytes)
	}
}

func mustGet(t *testing.T, name string) Spec {
	t.Helper()
	spec, ok := Get(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	return spec
}
