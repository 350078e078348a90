package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/randx"
)

// Fingerprint folds one solve's assignment, price bits, bids, iterations
// and evictions into h. Two solves with equal fingerprints are bit-equal
// on everything a caller of SolveAuction can observe about the bidding.
func Fingerprint(h hash.Hash64, res *AuctionResult) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.Assignment.SinkOf)))
	for _, s := range res.Assignment.SinkOf {
		put(uint64(int64(s)))
	}
	put(uint64(len(res.Prices)))
	for _, p := range res.Prices {
		put(math.Float64bits(p))
	}
	put(uint64(res.Bids))
	put(uint64(res.Iterations))
	put(uint64(res.Evictions))
}

// TestSolveAuctionFingerprint pins the cold auction on 30 seeded random
// instances to a fingerprint recorded with the standalone Gauss–Seidel
// bidding loop the cold solve replaced: loading a problem into a fresh
// Solver must reproduce that loop bit for bit, queue order included.
func TestSolveAuctionFingerprint(t *testing.T) {
	const want = "5cad5539176c9940"
	rng := randx.New(7)
	h := fnv.New64a()
	for trial := 0; trial < 30; trial++ {
		p := seededProblem(t, rng.Derive(uint64(trial)), 1+rng.Intn(25), 1+rng.Intn(8), false)
		res, err := SolveAuction(p, AuctionOptions{Epsilon: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		Fingerprint(h, res)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("cold auction fingerprint over 30 random instances = %s, want %s", got, want)
	}
}
