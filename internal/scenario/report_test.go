package scenario

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runReport runs the named report at small scale.
func runReport(t *testing.T, id string) *Report {
	t.Helper()
	rep, err := Reports()[id](ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != id || rep.Table == nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
	return rep
}

// TestAllRegistry pins the report catalog: the figures, the engine
// validation and the extensions, and none of the ablations, which are
// preset sweeps now.
func TestAllRegistry(t *testing.T) {
	var ids []string
	for id := range Reports() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	want := "engines fig2 fig3 fig4 fig5 fig6 isp-matrix robust-loss strategic"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("reports = %s, want %s", got, want)
	}
}

// TestExtensionsRegistered checks the two extension reports are reachable
// through the catalog.
func TestExtensionsRegistered(t *testing.T) {
	all := Reports()
	for _, id := range []string{"robust-loss", "strategic"} {
		if _, ok := all[id]; !ok {
			t.Errorf("%s missing", id)
		}
	}
}

// TestFig3Shape verifies the reproduction's headline ordering at small scale:
// auction welfare above locality.
func TestFig3Shape(t *testing.T) {
	t.Parallel()
	rep := runReport(t, "fig3")
	if len(rep.Series) != 2 {
		t.Fatalf("fig3 series = %d, want 2", len(rep.Series))
	}
	aw := mustParse(t, rep.Table.Rows[0][1])
	lw := mustParse(t, rep.Table.Rows[1][1])
	if aw <= lw {
		t.Fatalf("fig3 ordering broken: auction %v <= locality %v", aw, lw)
	}
}

// TestFig4And5Shapes verifies inter-ISP and miss-rate orderings at small
// scale (one static run pair feeds both figures; run them separately as the
// CLI does).
func TestFig4And5Shapes(t *testing.T) {
	t.Parallel()
	fig4 := runReport(t, "fig4")
	aInter := mustParse(t, fig4.Table.Rows[0][3])
	lInter := mustParse(t, fig4.Table.Rows[1][3])
	if aInter >= lInter {
		t.Fatalf("fig4 ordering broken: auction inter %v >= locality %v", aInter, lInter)
	}
	fig5 := runReport(t, "fig5")
	aMiss := mustParse(t, fig5.Table.Rows[0][4])
	lMiss := mustParse(t, fig5.Table.Rows[1][4])
	if aMiss >= lMiss {
		t.Fatalf("fig5 ordering broken: auction miss %v >= locality %v", aMiss, lMiss)
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	rep := runReport(t, "fig6")
	if len(rep.Series) != 6 {
		t.Fatalf("fig6 should carry all three metric pairs, got %d series", len(rep.Series))
	}
	aw := mustParse(t, rep.Table.Rows[0][1])
	lw := mustParse(t, rep.Table.Rows[1][1])
	if aw <= lw {
		t.Fatalf("fig6 welfare ordering broken under churn: %v <= %v", aw, lw)
	}
}

func TestFig2Trace(t *testing.T) {
	t.Parallel()
	rep := runReport(t, "fig2")
	if len(rep.Series) != 1 || rep.Series[0].Len() == 0 {
		t.Fatal("fig2 trace missing")
	}
	// λ is non-negative throughout and resets (0 samples) appear.
	resets := 0
	for _, p := range rep.Series[0].Points {
		if p.V < 0 {
			t.Fatalf("negative price %v in trace", p.V)
		}
		if p.V == 0 {
			resets++
		}
	}
	if resets == 0 {
		t.Fatal("no slot resets in λ trace")
	}
}

func TestAblationEnginesAgree(t *testing.T) {
	t.Parallel()
	rep := runReport(t, "engines")
	gap := mustParse(t, rep.Table.Rows[2][1])
	if gap > 5 {
		t.Fatalf("engine welfare gap %v%% exceeds 5%%", gap)
	}
}

func TestRobustnessLossDegradesGracefully(t *testing.T) {
	t.Parallel()
	rep := runReport(t, "robust-loss")
	if len(rep.Table.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	lossless := mustParse(t, rep.Table.Rows[0][1])
	heaviest := mustParse(t, rep.Table.Rows[len(rep.Table.Rows)-1][1])
	if lossless <= 0 {
		t.Fatalf("lossless welfare %v", lossless)
	}
	// The slot pipeline retransmits naturally (lost bids re-enter the next
	// bidding round), so welfare must stay within a band of the lossless run
	// rather than collapse — and certainly must not explode.
	if heaviest < 0.7*lossless || heaviest > 1.1*lossless {
		t.Fatalf("40%% loss welfare %v outside tolerance band of lossless %v",
			heaviest, lossless)
	}
	// Grants must stay positive even at heavy loss (the auction still runs).
	if g := mustParse(t, rep.Table.Rows[len(rep.Table.Rows)-1][2]); g <= 0 {
		t.Fatalf("no grants under loss: %v", g)
	}
}

func TestStrategicBiddingRewardsExaggeration(t *testing.T) {
	t.Parallel()
	rep := runReport(t, "strategic")
	if len(rep.Table.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Table.Rows))
	}
	// Row order: θ = 0.5, 1, 2, 4.
	under := mustParse(t, rep.Table.Rows[0][1])
	truthful := mustParse(t, rep.Table.Rows[1][1])
	exaggerated := mustParse(t, rep.Table.Rows[3][1])
	if exaggerated < truthful {
		t.Fatalf("θ=4 should not win fewer chunks than truthful: %v < %v",
			exaggerated, truthful)
	}
	if under > truthful {
		t.Fatalf("θ=0.5 under-reporting should not win more than truthful: %v > %v",
			under, truthful)
	}
}

func TestISPAnalysis(t *testing.T) {
	t.Parallel()
	rep := runReport(t, "isp-matrix")
	cfg, err := At(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// One row per ISP per strategy, plus a fairness row each.
	want := 2 * (cfg.NumISPs + 1)
	if len(rep.Table.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(rep.Table.Rows), want)
	}
	// Fairness entries parse and are in (0,1].
	for _, row := range rep.Table.Rows {
		if row[1] == "Jain fairness" {
			fair := mustParse(t, row[4])
			if fair <= 0 || fair > 1.000001 {
				t.Fatalf("fairness %v out of range", fair)
			}
		}
	}
}

func mustParse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
