package isp

// throttle.go: the ISP-side misbehavior policy of the strategic-behavior
// axis (internal/behavior). A throttling ISP shapes the P2P traffic that
// leaves its network — the Comcast/BitTorrent-style interference the
// locality literature responds to — modeled as connection admission: each
// cross-boundary uploader→downloader edge whose uploader sits in a
// throttling ISP is admitted with probability Cap and silently dropped
// otherwise. Admission is a pure function of (seed, edge), the same
// stateless-draw idiom as Topology.Cost, so both sim engines, every
// scheduler and the from-scratch reference pipeline see the identical
// perturbed instance.

import (
	"fmt"

	"repro/internal/randx"
)

// Throttle declares the ISPs that shape cross-boundary P2P egress and how
// much of it they let through. The zero value throttles nothing.
type Throttle struct {
	// ISPs lists the throttling ISPs by id.
	ISPs []int
	// Cap is the fraction of cross-boundary egress edges admitted, in
	// [0, 1]: 0 blocks all cross-ISP uploads out of the throttling ISPs,
	// 1 admits everything (a declared-but-idle throttle).
	Cap float64
}

// IsZero reports whether the throttle is inactive (no ISPs declared).
func (t Throttle) IsZero() bool { return len(t.ISPs) == 0 }

// Validate checks the throttle against the topology size.
func (t Throttle) Validate(numISPs int) error {
	if t.IsZero() {
		return nil
	}
	if t.Cap < 0 || t.Cap > 1 {
		return fmt.Errorf("isp: throttle cap %v outside [0,1]", t.Cap)
	}
	seen := make(map[int]bool, len(t.ISPs))
	for _, id := range t.ISPs {
		if id < 0 || id >= numISPs {
			return fmt.Errorf("isp: throttling ISP %d outside [0,%d)", id, numISPs)
		}
		if seen[id] {
			return fmt.Errorf("isp: ISP %d throttles twice", id)
		}
		seen[id] = true
	}
	return nil
}

// Throttles reports whether ISP m shapes its egress.
func (t Throttle) Throttles(m ID) bool {
	for _, id := range t.ISPs {
		if ID(id) == m {
			return true
		}
	}
	return false
}

// Admits reports whether the uploader→downloader edge survives traffic
// shaping: intra-ISP edges and edges out of non-throttling ISPs always
// pass; cross-boundary egress from a throttling ISP passes with
// probability Cap, drawn statelessly per directed peer pair so the
// verdict is stable across rounds, slots and engines.
func (t Throttle) Admits(seed uint64, up PeerID, upISP ID, down PeerID, downISP ID) bool {
	if upISP == downISP || !t.Throttles(upISP) {
		return true
	}
	if t.Cap >= 1 {
		return true
	}
	if t.Cap <= 0 {
		return false
	}
	pairKey := uint64(up)<<32 | uint64(uint32(down))
	return randx.New(seed).Derive(pairKey).Bool(t.Cap)
}
