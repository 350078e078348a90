package tracker

import (
	"reflect"
	"testing"

	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/video"
)

// localityWorld builds a tracker with 2 seeds and 8 watchers of one video,
// peers 0..9, where even peers live in ISP 0 and odd peers in ISP 1.
func localityWorld(t *testing.T) (*Tracker, func(isp.PeerID) (isp.ID, bool)) {
	t.Helper()
	tr := New()
	for p := 0; p < 10; p++ {
		e := Entry{Peer: isp.PeerID(p), Video: 1, Position: video.ChunkIndex(10 * p)}
		if p < 2 {
			e.Seed = true
		}
		if err := tr.Join(e); err != nil {
			t.Fatal(err)
		}
	}
	ispOf := func(p isp.PeerID) (isp.ID, bool) {
		if p < 0 || p > 9 {
			return 0, false
		}
		return isp.ID(p % 2), true
	}
	return tr, ispOf
}

func TestPolicyValidateAndString(t *testing.T) {
	for _, ok := range []Policy{
		{},
		{Kind: PolicyISPBias, BiasP: 0.5},
		{Kind: PolicyCrossCap, MaxCross: 0},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%v: %v", ok, err)
		}
	}
	for _, bad := range []Policy{
		{Kind: PolicyISPBias, BiasP: -0.1},
		{Kind: PolicyISPBias, BiasP: 1.1},
		{Kind: PolicyCrossCap, MaxCross: -1},
		{Kind: PolicyKind(42)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%v should be invalid", bad)
		}
	}
	if got := (Policy{}).String(); got != "uniform" {
		t.Errorf("zero policy = %q", got)
	}
	if got := (Policy{Kind: PolicyISPBias, BiasP: 0.8}).String(); got != "isp-bias(p=0.8)" {
		t.Errorf("bias policy = %q", got)
	}
}

// TestUniformPolicyMatchesNeighbors pins the compatibility contract: the
// uniform policy (and the degenerate bias-0 policy) reproduce
// Tracker.Neighbors exactly.
func TestUniformPolicyMatchesNeighbors(t *testing.T) {
	tr, ispOf := localityWorld(t)
	for _, max := range []int{0, 3, 6, 20} {
		want, err := tr.Neighbors(4, max)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.NeighborsLocal(4, max, Policy{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("max=%d: uniform policy %v != Neighbors %v", max, got, want)
		}
		zeroBias, err := tr.NeighborsLocal(4, max, Policy{Kind: PolicyISPBias}, ispOf, randx.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zeroBias, want) {
			t.Errorf("max=%d: bias-0 policy %v != Neighbors %v", max, zeroBias, want)
		}
	}
}

// crossCount counts cross-ISP non-seed neighbors of peer p in list.
func crossCount(t *testing.T, ispOf func(isp.PeerID) (isp.ID, bool), tr *Tracker,
	self isp.PeerID, list []isp.PeerID) int {
	t.Helper()
	selfISP, _ := ispOf(self)
	n := 0
	for _, q := range list {
		if e, ok := tr.Lookup(q); ok && e.Seed {
			continue
		}
		qISP, _ := ispOf(q)
		if qISP != selfISP {
			n++
		}
	}
	return n
}

func TestISPBiasFrontloadsSameISP(t *testing.T) {
	tr, ispOf := localityWorld(t)
	// Peer 4 (ISP 0): watchers 2,3,5,6,7,8,9; same-ISP = {2,6,8}.
	full, err := tr.NeighborsLocal(4, 20, Policy{Kind: PolicyISPBias, BiasP: 1}, ispOf, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Bias 1: seeds, then every same-ISP watcher, then the cross rest.
	for i, q := range full {
		if i < 2 {
			continue // seeds 0,1
		}
		qISP, _ := ispOf(q)
		if i < 5 && qISP != 0 {
			t.Fatalf("bias=1 list %v: cross-ISP watcher %d before same-ISP exhausted", full, q)
		}
	}
	if len(full) != 9 {
		t.Fatalf("full list = %v", full)
	}

	// A truncated biased list carries fewer cross-ISP watchers than uniform.
	uniform, err := tr.Neighbors(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	biased, err := tr.NeighborsLocal(4, 5, Policy{Kind: PolicyISPBias, BiasP: 1}, ispOf, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if cu, cb := crossCount(t, ispOf, tr, 4, uniform), crossCount(t, ispOf, tr, 4, biased); cb >= cu {
		t.Errorf("bias=1 cross count %d not below uniform %d (%v vs %v)", cb, cu, biased, uniform)
	}

	// Determinism: same rng seed, same list.
	again, err := tr.NeighborsLocal(4, 5, Policy{Kind: PolicyISPBias, BiasP: 1}, ispOf, randx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(biased, again) {
		t.Errorf("biased selection not deterministic: %v vs %v", biased, again)
	}
}

func TestCrossCapBoundsCrossISPWatchers(t *testing.T) {
	tr, ispOf := localityWorld(t)
	for _, cc := range []int{0, 1, 2} {
		got, err := tr.NeighborsLocal(4, 20, Policy{Kind: PolicyCrossCap, MaxCross: cc}, ispOf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := crossCount(t, ispOf, tr, 4, got); n != cc {
			t.Errorf("cap=%d admitted %d cross watchers: %v", cc, n, got)
		}
		// Same-ISP watchers all present regardless of the cap.
		sameSeen := 0
		for _, q := range got {
			if e, _ := tr.Lookup(q); !e.Seed {
				if qISP, _ := ispOf(q); qISP == 0 {
					sameSeen++
				}
			}
		}
		if sameSeen != 3 {
			t.Errorf("cap=%d kept %d same-ISP watchers, want 3: %v", cc, sameSeen, got)
		}
	}
	// A huge cap reproduces the uniform list.
	want, _ := tr.Neighbors(4, 20)
	got, err := tr.NeighborsLocal(4, 20, Policy{Kind: PolicyCrossCap, MaxCross: 100}, ispOf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("uncapped cross-cap %v != uniform %v", got, want)
	}
}

func TestNeighborsLocalSeedsExemptAndErrors(t *testing.T) {
	tr, ispOf := localityWorld(t)
	// Cap 0 still returns both seeds (1 is cross-ISP from peer 4's view).
	got, err := tr.NeighborsLocal(4, 20, Policy{Kind: PolicyCrossCap, MaxCross: 0}, ispOf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("seeds not front-loaded: %v", got)
	}

	if _, err := tr.NeighborsLocal(99, 5, Policy{Kind: PolicyCrossCap}, ispOf, nil); err == nil {
		t.Error("unknown peer should error")
	}
	if _, err := tr.NeighborsLocal(4, 5, Policy{Kind: PolicyCrossCap}, nil, nil); err == nil {
		t.Error("missing ISP lookup should error")
	}
	if _, err := tr.NeighborsLocal(4, 5, Policy{Kind: PolicyISPBias, BiasP: 0.5}, ispOf, nil); err == nil {
		t.Error("missing rng should error")
	}
	if _, err := tr.NeighborsLocal(4, 5, Policy{Kind: PolicyKind(9)}, ispOf, nil); err == nil {
		t.Error("unknown policy should error")
	}
	if got, err := tr.NeighborsLocal(4, 0, Policy{Kind: PolicyCrossCap}, ispOf, nil); err != nil || got != nil {
		t.Errorf("max=0 should return empty: %v, %v", got, err)
	}
	broken := func(p isp.PeerID) (isp.ID, bool) { return 0, p == 4 } // only self resolves
	if _, err := tr.NeighborsLocal(4, 5, Policy{Kind: PolicyCrossCap}, broken, nil); err == nil {
		t.Error("unresolvable watcher ISP should error")
	}
}
