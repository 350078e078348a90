package scenario

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/isp"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Table is a printable summary.
type Table struct {
	Columns []string
	Rows    [][]string
}

// Report is one paper report's output: the time series behind the figure, a
// summary table, and notes on how to read it against the paper.
type Report struct {
	ID     string
	Title  string
	Series []*metrics.Series
	Table  *Table
	Notes  string
}

// Reports maps every paper report id to its runner: one per figure of the
// paper's evaluation (Figs. 2–6), the engine validation of Theorem 1, and
// three extensions (message-loss robustness, strategic bidding, the per-ISP
// traffic matrix). A report built on a world runs it as a Spec under the
// auction and Simple Locality; the ablations are sweeps over the presets
// (the README's "Reproducing the paper's figures").
func Reports() map[string]func(Scale) (*Report, error) {
	return map[string]func(Scale) (*Report, error){
		"fig2":        fig2PriceConvergence,
		"fig3":        fig3SocialWelfare,
		"fig4":        fig4InterISPTraffic,
		"fig5":        fig5ChunkMissRate,
		"fig6":        fig6PeerDynamics,
		"engines":     enginesAgree,
		"robust-loss": robustnessLoss,
		"strategic":   strategicBidding,
		"isp-matrix":  ispAnalysis,
	}
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// Indices into a sim Result's Series, in runSim's order.
const (
	seriesWelfare = iota
	seriesInterISP
	seriesMissRate
)

// worldRun is one solver's run of a report's world.
type worldRun struct {
	label string // the strategy column
	res   *Result
}

// runWorld runs cfg as an unregistered sim spec under each solver, at the
// config's own seed. Rows are labelled with the solver name, except that
// locality keeps its scheduler's name, "simple-locality".
func runWorld(id string, cfg sim.Config, solvers ...Solver) ([]worldRun, error) {
	world := Spec{Name: id, Kind: KindSim, Sim: cfg}
	runs := make([]worldRun, len(solvers))
	for i, sv := range solvers {
		res, err := world.WithSolver(sv).Run(cfg.Seed)
		if err != nil {
			return nil, err
		}
		label := string(sv)
		if sv == SolverLocality {
			label = "simple-locality"
		}
		runs[i] = worldRun{label: label, res: res}
	}
	return runs, nil
}

var comparisonColumns = []string{
	"strategy", "welfare/slot", "welfare(final)", "inter-isp", "miss-rate", "grants",
}

// comparison runs cfg under the auction and Simple Locality, one table row
// each, and charts the chosen series: per index, the auction's curve then
// locality's.
func comparison(id, title, notes string, cfg sim.Config, series ...int) (*Report, error) {
	runs, err := runWorld(id, cfg, SolverAuction, SolverLocality)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: title, Notes: notes, Table: &Table{Columns: comparisonColumns}}
	for _, i := range series {
		for _, r := range runs {
			rep.Series = append(rep.Series, r.res.Series[i])
		}
	}
	for _, r := range runs {
		m := r.res.Metrics
		rep.Table.Rows = append(rep.Table.Rows, []string{
			r.label,
			f2(m["welfare_per_slot"]),
			f2(m["welfare_final"]),
			f4(m["inter_isp"]),
			f4(m["miss_rate"]),
			strconv.FormatFloat(m["grants"], 'f', -1, 64),
		})
	}
	return rep, nil
}

// fig2PriceConvergence reproduces Fig. 2: a representative peer's unit
// bandwidth price λ_u over time, under the message-level auction. The
// price resets to 0 at each slot boundary, climbs during the interleaved
// auctions and flattens once converged.
func fig2PriceConvergence(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	// Fig. 2 runs the per-slot auction exactly as the paper describes: one
	// bidding cycle per slot, prices evolving within it.
	cfg.BidRoundsPerSlot = 1
	if scale == ScaleFull {
		// The message-level auction is heavier; the paper's plot spans 10
		// slots (150–250 s), so a 10-slot window suffices at full scale.
		cfg.Slots = 10
		cfg.StaticPeers = 300
	}
	runs, err := runWorld("fig2", cfg, SolverAuctionDES)
	if err != nil {
		return nil, err
	}
	trace := runs[0].res.PriceTrace
	if trace.Len() == 0 {
		return nil, fmt.Errorf("scenario: fig2 produced no price trace")
	}
	sum := trace.Summarize()
	return &Report{
		ID:     "fig2",
		Title:  "Fig. 2 — evolution of a representative peer's price λ_u",
		Series: []*metrics.Series{trace},
		Table: &Table{
			Columns: []string{"metric", "value"},
			Rows: [][]string{
				{"price samples", strconv.Itoa(sum.Count)},
				{"max λ", f2(sum.Max)},
				{"mean λ", f2(sum.Mean)},
				{"slots", strconv.Itoa(cfg.Slots)},
			},
		},
		Notes: "Expect a sawtooth: λ resets to 0 at every slot boundary, rises under " +
			"competition within a few simulated seconds, then stays flat (converged) " +
			"until the slot ends — the paper reports convergence ≈5 s into each 10 s slot.",
	}, nil
}

// fig3SocialWelfare reproduces Fig. 3: social welfare per slot in a dynamic
// network (Poisson arrivals, peers stay until their video ends), auction vs
// Simple Locality.
func fig3SocialWelfare(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	cfg.Scenario = sim.ScenarioDynamic
	return comparison("fig3", "Fig. 3 — social welfare per slot, dynamic arrivals",
		"Expect the auction's welfare to grow as peers accumulate and to stay above "+
			"Simple Locality's: locality schedules without valuations, so its transfers can "+
			"have v−w<0 (in the paper its welfare goes negative).",
		cfg, seriesWelfare)
}

// fig4InterISPTraffic reproduces Fig. 4: the inter-ISP share of chunk
// transfers per slot in a static network.
func fig4InterISPTraffic(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	return comparison("fig4", "Fig. 4 — % of inter-ISP traffic, static network",
		"Expect the auction's inter-ISP share below Simple Locality's: a peer only "+
			"crosses an ISP boundary when the chunk's valuation justifies the cost.",
		cfg, seriesInterISP)
}

// fig5ChunkMissRate reproduces Fig. 5: the average chunk miss rate per slot
// in a static network.
func fig5ChunkMissRate(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	return comparison("fig5", "Fig. 5 — chunk miss rate, static network",
		"Expect the auction's miss rate below Simple Locality's: price-mediated "+
			"coordination spreads load across uploaders, while locality herds onto the "+
			"cheapest neighbor and overflow requests are lost.",
		cfg, seriesMissRate)
}

// fig6PeerDynamics reproduces Fig. 6(a,b,c): welfare, inter-ISP share and
// miss rate under churn (each arrival leaves early with probability 0.6).
func fig6PeerDynamics(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	cfg.Scenario = sim.ScenarioDynamic
	cfg.EarlyLeaveProb = 0.6
	return comparison("fig6",
		"Fig. 6 — welfare / inter-ISP / miss rate under peer dynamics (p=0.6)",
		"Expect the same orderings as Figs. 3–5 to persist under churn: the auction "+
			"re-converges each slot, so departures only remove supply/demand locally.",
		cfg, seriesWelfare, seriesInterISP, seriesMissRate)
}

// enginesAgree validates Theorem 1 in practice: the centralized primal-dual
// solver and the message-level distributed auctions schedule the same world
// with near-equal welfare.
func enginesAgree(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	if scale == ScaleFull {
		// Message-level at full scale is expensive; medium population makes
		// the same point.
		cfg.StaticPeers = 200
		cfg.Slots = 10
	}
	runs, err := runWorld("engines", cfg, SolverAuction, SolverAuctionDES)
	if err != nil {
		return nil, err
	}
	fast, des := runs[0].res, runs[1].res
	fw, dw := fast.Metrics["welfare_per_slot"], des.Metrics["welfare_per_slot"]
	gap := 0.0
	if fw != 0 {
		gap = 100 * math.Abs(fw-dw) / math.Abs(fw)
	}
	return &Report{
		ID:     "engines",
		Title:  "Validation — centralized solver vs distributed auctions (Theorem 1)",
		Series: []*metrics.Series{fast.Series[seriesWelfare], des.Series[seriesWelfare]},
		Table: &Table{
			Columns: []string{"engine", "welfare/slot", "inter-isp", "miss-rate"},
			Rows: [][]string{
				{"fast (centralized)", f2(fw), f4(fast.Metrics["inter_isp"]), f4(fast.Metrics["miss_rate"])},
				{"des (distributed)", f2(dw), f4(des.Metrics["inter_isp"]), f4(des.Metrics["miss_rate"])},
				{"welfare gap %", f4(gap), "", ""},
			},
		},
		Notes: "Theorem 1: the distributed interleaving auctions converge to the centralized " +
			"optimum; small gaps reflect ε rounding and stale-price bidding.",
	}, nil
}

// robustnessLoss injects message loss (Fault.DropProb) into the distributed
// auction and measures graceful degradation: the protocol has no retransmission (bidders
// re-bid only on explicit rejection, per the paper), so lost bids shrink the
// allocation rather than wedging the auction. The report verifies
// termination under loss and quantifies the cost.
func robustnessLoss(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	// Message-level runs: keep the population modest at every scale.
	switch scale {
	case ScaleFull:
		cfg.StaticPeers = 150
		cfg.Slots = 8
	case ScaleMedium:
		cfg.StaticPeers = 80
		cfg.Slots = 6
	default:
		cfg.StaticPeers = 40
		cfg.Slots = 4
	}
	table := &Table{Columns: []string{"drop rate", "welfare/slot", "grants", "miss-rate"}}
	var baseline float64
	for _, drop := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		cfg.Fault.DropProb = drop
		runs, err := runWorld("robust-loss", cfg, SolverAuctionDES)
		if err != nil {
			return nil, fmt.Errorf("scenario: loss %v: %w", drop, err)
		}
		m := runs[0].res.Metrics
		welfare := m["welfare_per_slot"]
		if drop == 0 {
			baseline = welfare
		}
		table.Rows = append(table.Rows, []string{
			f2(drop), f2(welfare), strconv.FormatFloat(m["grants"], 'f', -1, 64), f4(m["miss_rate"]),
		})
		// Sanity: losing messages must never *increase* welfare beyond noise.
		if welfare > baseline*1.05+1 {
			return nil, fmt.Errorf("scenario: welfare rose under %v%% loss (%.1f > %.1f)",
				100*drop, welfare, baseline)
		}
	}
	return &Report{
		ID:    "robust-loss",
		Title: "Robustness — distributed auctions under message loss",
		Table: table,
		Notes: "The auction is strikingly loss-tolerant: a lost bid's chunk is still " +
			"missing at the next bidding round, so the slot pipeline retransmits " +
			"naturally and welfare stays nearly flat through 40% loss. The auction " +
			"always terminates because the auctioneer's book is authoritative and " +
			"bidders without answers simply stay unresolved for the round.",
	}, nil
}

// strategicAuction wraps the auction scheduler with one peer misreporting
// its valuations by Factor before bidding. Grants are returned against the
// true instance, so the simulator's welfare accounting uses true values; the
// wrapper additionally counts how many chunks the manipulator won.
type strategicAuction struct {
	inner  sched.Auction
	target isp.PeerID
	factor float64

	targetGrants int
}

var _ sched.Scheduler = (*strategicAuction)(nil)

func (s *strategicAuction) Name() string { return "auction-strategic" }

func (s *strategicAuction) Schedule(in *sched.Instance) (*sched.Result, error) {
	// Build the reported instance: identical shape, scaled values for the
	// manipulator's requests.
	reported := make([]sched.Request, len(in.Requests))
	copy(reported, in.Requests)
	for i := range reported {
		if reported[i].Peer == s.target {
			reported[i].Value *= s.factor
		}
	}
	reportedIn, err := sched.NewInstance(reported, in.Uploaders)
	if err != nil {
		return nil, err
	}
	res, err := s.inner.Schedule(reportedIn)
	if err != nil {
		return nil, err
	}
	for _, g := range res.Grants {
		if in.Requests[g.Request].Peer == s.target {
			s.targetGrants++
		}
	}
	return res, nil
}

// strategicBidding quantifies the mechanism's manipulability — the paper's
// stated future work ("enforce truthfulness of the bids in cases of selfish
// peers"). One peer scales its reported valuations by θ; exaggeration (θ>1)
// buys it more bandwidth at the expense of total welfare, demonstrating that
// the auction maximizes *reported* welfare and is not strategyproof without
// payments. The manipulation lives in the scheduler, so this report drives
// sim.Run with the wrapper rather than a registered solver.
func strategicBidding(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	// The manipulator: the first watcher (ids start after the seeds).
	seedCount := cfg.Catalog.Count * cfg.SeedsPerVideo
	if cfg.Placement == sim.SeedsPerISP {
		seedCount *= cfg.NumISPs
	}
	target := isp.PeerID(seedCount)

	table := &Table{Columns: []string{"θ (reported v × θ)", "manipulator grants", "system welfare/slot"}}
	for _, theta := range []float64{0.5, 1, 2, 4} {
		strat := &strategicAuction{
			inner:  sched.Auction{Epsilon: cfg.Epsilon},
			target: target,
			factor: theta,
		}
		res, err := sim.Run(cfg, strat)
		if err != nil {
			return nil, fmt.Errorf("scenario: θ=%v: %w", theta, err)
		}
		table.Rows = append(table.Rows, []string{
			f2(theta), strconv.Itoa(strat.targetGrants), f2(res.Welfare.Summarize().Mean),
		})
	}
	return &Report{
		ID:    "strategic",
		Title: "Extension — strategic (untruthful) bidding, the paper's future work",
		Table: table,
		Notes: "θ>1 exaggeration wins the manipulator extra chunks while total (true) " +
			"welfare falls — the mechanism is not truthful, which is exactly why the " +
			"paper lists truthfulness enforcement as ongoing work.",
	}, nil
}

// ispAnalysis reports the ISP-operator view the paper's motivation is about:
// the full ISP-to-ISP traffic matrix, each ISP's miss rate, and Jain's
// fairness index over per-ISP service quality — auction vs Simple Locality.
func ispAnalysis(scale Scale) (*Report, error) {
	cfg, err := At(scale)
	if err != nil {
		return nil, err
	}
	runs, err := runWorld("isp-matrix", cfg, SolverAuction, SolverLocality)
	if err != nil {
		return nil, err
	}
	table := &Table{Columns: []string{"strategy", "isp", "egress intra", "egress inter", "miss-rate"}}
	for _, r := range runs {
		for i, row := range r.res.Traffic.Rows() {
			var intra, inter int64
			for j, v := range row {
				if i == j {
					intra += v
				} else {
					inter += v
				}
			}
			table.Rows = append(table.Rows, []string{
				r.label,
				strconv.Itoa(i),
				strconv.FormatInt(intra, 10),
				strconv.FormatInt(inter, 10),
				f4(r.res.PerISPMissRate[i]),
			})
		}
		table.Rows = append(table.Rows, []string{
			r.label, "Jain fairness", "", "", f4(r.res.Metrics["fairness"]),
		})
	}
	return &Report{
		ID:    "isp-matrix",
		Title: "Extension — per-ISP traffic matrix and service fairness",
		Table: table,
		Notes: "Seed placement drives asymmetry: ISPs hosting seeds export traffic and " +
			"enjoy low miss rates; the auction's fairness index shows whether its " +
			"value-based declines concentrate losses on content-poor ISPs.",
	}, nil
}
