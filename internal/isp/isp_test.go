package isp

import (
	"math"
	"testing"
	"testing/quick"
)

func mustTopology(t *testing.T, numISPs int, seed uint64) *Topology {
	t.Helper()
	topo, err := NewTopology(numISPs, DefaultCostModel(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(0, DefaultCostModel(), 1); err == nil {
		t.Error("zero ISPs should error")
	}
	bad := DefaultCostModel()
	bad.IntraMin, bad.IntraMax = 5, 1
	if _, err := NewTopology(3, bad, 1); err == nil {
		t.Error("inverted intra bounds should error")
	}
	bad = DefaultCostModel()
	bad.InterStd = -1
	if _, err := NewTopology(3, bad, 1); err == nil {
		t.Error("negative std should error")
	}
}

func TestAddPeerAndOf(t *testing.T) {
	topo := mustTopology(t, 5, 1)
	for i := 0; i < 20; i++ {
		id, err := topo.AddPeer(ID(i % 5))
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("PeerID = %d, want %d", id, i)
		}
	}
	if topo.NumPeers() != 20 {
		t.Fatalf("NumPeers = %d", topo.NumPeers())
	}
	m, err := topo.Of(7)
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("peer 7 in ISP %d, want 2", m)
	}
	if _, err := topo.AddPeer(5); err == nil {
		t.Error("out-of-range ISP should error")
	}
	if _, err := topo.Of(99); err == nil {
		t.Error("unknown peer should error")
	}
}

func TestCostBoundsAndClasses(t *testing.T) {
	topo := mustTopology(t, 5, 42)
	const perISP = 10
	for m := 0; m < 5; m++ {
		for i := 0; i < perISP; i++ {
			if _, err := topo.AddPeer(ID(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	model := DefaultCostModel()
	n := topo.NumPeers()
	for u := 0; u < n; u++ {
		for d := u + 1; d < n; d++ {
			c, err := topo.Cost(PeerID(u), PeerID(d))
			if err != nil {
				t.Fatal(err)
			}
			inter, err := topo.IsInter(PeerID(u), PeerID(d))
			if err != nil {
				t.Fatal(err)
			}
			if inter {
				if c < model.InterMin || c > model.InterMax {
					t.Fatalf("inter cost %v out of [%v,%v]", c, model.InterMin, model.InterMax)
				}
			} else if c < model.IntraMin || c > model.IntraMax {
				t.Fatalf("intra cost %v out of [%v,%v]", c, model.IntraMin, model.IntraMax)
			}
		}
	}
}

func TestCostSymmetricStableZeroSelf(t *testing.T) {
	topo := mustTopology(t, 3, 7)
	for i := 0; i < 30; i++ {
		if _, err := topo.AddPeer(ID(i % 3)); err != nil {
			t.Fatal(err)
		}
	}
	f := func(a, b uint8) bool {
		u := PeerID(int(a) % 30)
		d := PeerID(int(b) % 30)
		c1, err1 := topo.Cost(u, d)
		c2, err2 := topo.Cost(d, u)
		c3, err3 := topo.Cost(u, d)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		if u == d {
			return c1 == 0
		}
		return c1 == c2 && c1 == c3 && c1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCostMeans(t *testing.T) {
	topo := mustTopology(t, 2, 99)
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := topo.AddPeer(ID(i % 2)); err != nil {
			t.Fatal(err)
		}
	}
	var intraSum, interSum float64
	var intraN, interN int
	for u := 0; u < n; u++ {
		for d := u + 1; d < n; d++ {
			c := topo.MustCost(PeerID(u), PeerID(d))
			inter, err := topo.IsInter(PeerID(u), PeerID(d))
			if err != nil {
				t.Fatal(err)
			}
			if inter {
				interSum += c
				interN++
			} else {
				intraSum += c
				intraN++
			}
		}
	}
	if m := intraSum / float64(intraN); math.Abs(m-1) > 0.05 {
		t.Errorf("intra mean %v, want ~1", m)
	}
	if m := interSum / float64(interN); math.Abs(m-5) > 0.05 {
		t.Errorf("inter mean %v, want ~5", m)
	}
}

func TestCostSeedSensitivity(t *testing.T) {
	t1 := mustTopology(t, 2, 1)
	t2 := mustTopology(t, 2, 2)
	for i := 0; i < 4; i++ {
		if _, err := t1.AddPeer(ID(i % 2)); err != nil {
			t.Fatal(err)
		}
		if _, err := t2.AddPeer(ID(i % 2)); err != nil {
			t.Fatal(err)
		}
	}
	diff := 0
	for u := 0; u < 4; u++ {
		for d := u + 1; d < 4; d++ {
			if t1.MustCost(PeerID(u), PeerID(d)) != t2.MustCost(PeerID(u), PeerID(d)) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds should produce different cost matrices")
	}
}

func TestSameISP(t *testing.T) {
	topo := mustTopology(t, 2, 5)
	a, _ := topo.AddPeer(0)
	b, _ := topo.AddPeer(0)
	c, _ := topo.AddPeer(1)
	same, err := topo.SameISP(a, b)
	if err != nil || !same {
		t.Errorf("peers in same ISP: got %v, %v", same, err)
	}
	same, err = topo.SameISP(a, c)
	if err != nil || same {
		t.Errorf("peers in different ISPs: got %v, %v", same, err)
	}
	if _, err := topo.SameISP(a, 99); err == nil {
		t.Error("unknown peer should error")
	}
}

func BenchmarkCost(b *testing.B) {
	topo, err := NewTopology(5, DefaultCostModel(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := topo.AddPeer(ID(i % 5)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = topo.MustCost(PeerID(i%1000), PeerID((i*7+13)%1000))
	}
}
