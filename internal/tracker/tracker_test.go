package tracker

import (
	"reflect"
	"testing"

	"repro/internal/isp"
	"repro/internal/video"
)

func TestJoinLeaveLookup(t *testing.T) {
	tr := New()
	if err := tr.Join(Entry{Peer: 1, Video: 0, Position: 10}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join(Entry{Peer: 1, Video: 0}); err == nil {
		t.Fatal("double join should error")
	}
	if tr.Online() != 1 {
		t.Fatalf("online = %d", tr.Online())
	}
	e, ok := tr.Lookup(1)
	if !ok || e.Position != 10 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	tr.Leave(1)
	if tr.Online() != 0 {
		t.Fatal("leave failed")
	}
	tr.Leave(1) // no-op, no panic
	if _, ok := tr.Lookup(1); ok {
		t.Fatal("departed peer still visible")
	}
}

func TestUpdatePosition(t *testing.T) {
	tr := New()
	if err := tr.Join(Entry{Peer: 1, Video: 0, Position: 0}); err != nil {
		t.Fatal(err)
	}
	tr.UpdatePosition(1, 500)
	if e, _ := tr.Lookup(1); e.Position != 500 {
		t.Fatalf("position = %d", e.Position)
	}
	tr.UpdatePosition(99, 1) // unknown peer: no-op
}

func TestNeighborsPositionOrdering(t *testing.T) {
	tr := New()
	if err := tr.Join(Entry{Peer: 0, Video: 5, Position: 100}); err != nil {
		t.Fatal(err)
	}
	positions := map[isp.PeerID]video.ChunkIndex{
		1: 90,  // dist 10
		2: 105, // dist 5
		3: 300, // dist 200
		4: 100, // dist 0
	}
	for p, pos := range positions {
		if err := tr.Join(Entry{Peer: p, Video: 5, Position: pos}); err != nil {
			t.Fatal(err)
		}
	}
	// A watcher of a different video must never appear.
	if err := tr.Join(Entry{Peer: 9, Video: 6, Position: 100}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Neighbors(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []isp.PeerID{4, 2, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", got, want)
		}
	}
	// Truncation keeps the closest.
	got, err = tr.Neighbors(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("truncated neighbors = %v", got)
	}
}

func TestNeighborsSeedsFirst(t *testing.T) {
	tr := New()
	if err := tr.Join(Entry{Peer: 0, Video: 1, Position: 50}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join(Entry{Peer: 7, Video: 1, Position: 50}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join(Entry{Peer: 20, Video: 1, Seed: true}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Join(Entry{Peer: 21, Video: 1, Seed: true}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Neighbors(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 20 || got[1] != 21 || got[2] != 7 {
		t.Fatalf("seeds should lead the list: %v", got)
	}
}

func TestNeighborsErrors(t *testing.T) {
	tr := New()
	if _, err := tr.Neighbors(5, 10); err == nil {
		t.Fatal("unknown peer should error")
	}
	if err := tr.Join(Entry{Peer: 5, Video: 0}); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Neighbors(5, 0)
	if err != nil || got != nil {
		t.Fatalf("max=0 should be empty, got %v, %v", got, err)
	}
	// Alone in the swarm: empty list, no error.
	got, err = tr.Neighbors(5, 10)
	if err != nil || len(got) != 0 {
		t.Fatalf("lonely peer: %v, %v", got, err)
	}
}

func TestWatching(t *testing.T) {
	tr := New()
	for i := 0; i < 4; i++ {
		if err := tr.Join(Entry{Peer: isp.PeerID(i), Video: video.ID(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Watching(0) != 2 || tr.Watching(1) != 2 || tr.Watching(9) != 0 {
		t.Fatalf("watching counts wrong: %d %d %d",
			tr.Watching(0), tr.Watching(1), tr.Watching(9))
	}
	tr.Leave(0)
	tr.Leave(2)
	if tr.Watching(0) != 0 {
		t.Fatal("video map not cleaned up")
	}
}

// TestSwarmPeersIndex pins the by-video index: sorted ids, seeds included,
// empty swarms nil, and Leave maintenance.
func TestSwarmPeersIndex(t *testing.T) {
	tr := New()
	for _, e := range []Entry{
		{Peer: 5, Video: 1},
		{Peer: 2, Video: 1, Seed: true},
		{Peer: 9, Video: 1},
		{Peer: 3, Video: 2},
	} {
		if err := tr.Join(e); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tr.SwarmPeers(1), []isp.PeerID{2, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("SwarmPeers(1) = %v, want %v", got, want)
	}
	if got := tr.SwarmPeers(42); got != nil {
		t.Errorf("empty swarm = %v, want nil", got)
	}
	tr.Leave(5)
	if got, want := tr.SwarmPeers(1), []isp.PeerID{2, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("after Leave: %v, want %v", got, want)
	}
}
