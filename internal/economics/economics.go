// Package economics is the inter-ISP traffic-economics layer: it turns the
// scheduler's chunk grants into the ledger an ISP operator actually audits —
// an ISP×ISP traffic matrix (matrix recording, this file), a transit bill
// under a pluggable settlement model (transit.go, settlement.go), and a
// welfare-vs-transit Pareto comparison across scheduling policies
// (pareto.go).
//
// The paper optimizes social welfare Σ (v − w) where the network cost w
// already *encodes* ISP-unfriendliness, but never reports what the optimum
// costs the ISPs in transit money. The locality literature does: "Pushing
// BitTorrent Locality to the Limit" (Le Blond et al.) measures transit
// savings of biased neighbor selection, and "Can P2P Technology Benefit
// Eyeball ISPs?" (Xu et al.) frames the cross-ISP byte count as a
// settlement problem between access ISPs and their transit providers. This
// package provides the measurement plane for both: every simulation run,
// whatever its scheduler, records per-slot traffic matrices, and the
// settlement models price them.
//
// All quantities are additive: matrices merge cell-wise (Matrix.Merge), so
// per-shard or per-slot ledgers recombine into the exact global ledger.
package economics

import (
	"encoding/json"
	"fmt"

	"repro/internal/isp"
	"repro/internal/sched"
)

// Matrix is an ISP×ISP ledger of chunk transfers: cell (src, dst) counts
// chunks uploaded by peers in ISP src to peers in ISP dst. The diagonal is
// intra-ISP traffic (free under every settlement model); off-diagonal cells
// are the transit bytes the settlement models price. The zero Matrix is not
// usable; build with NewMatrix.
type Matrix struct {
	n     int
	cells []int64 // row-major [src*n + dst]
}

// NewMatrix creates an all-zero numISPs×numISPs matrix.
func NewMatrix(numISPs int) (*Matrix, error) {
	if numISPs <= 0 {
		return nil, fmt.Errorf("economics: need at least one ISP, got %d", numISPs)
	}
	return &Matrix{n: numISPs, cells: make([]int64, numISPs*numISPs)}, nil
}

// NumISPs returns the matrix dimension.
func (m *Matrix) NumISPs() int { return m.n }

// valid reports whether an ISP id indexes the matrix.
func (m *Matrix) valid(id isp.ID) bool { return id >= 0 && int(id) < m.n }

// Add records chunks transfers from ISP src to ISP dst.
func (m *Matrix) Add(src, dst isp.ID, chunks int64) error {
	if !m.valid(src) || !m.valid(dst) {
		return fmt.Errorf("economics: cell (%d,%d) outside %d×%d matrix", src, dst, m.n, m.n)
	}
	if chunks < 0 {
		return fmt.Errorf("economics: negative transfer count %d", chunks)
	}
	m.cells[int(src)*m.n+int(dst)] += chunks
	return nil
}

// At returns the chunk count of cell (src, dst); out-of-range cells read 0.
func (m *Matrix) At(src, dst isp.ID) int64 {
	if !m.valid(src) || !m.valid(dst) {
		return 0
	}
	return m.cells[int(src)*m.n+int(dst)]
}

// Total returns all transfers recorded.
func (m *Matrix) Total() int64 {
	var t int64
	for _, v := range m.cells {
		t += v
	}
	return t
}

// Inter returns the cross-ISP transfers (off-diagonal sum).
func (m *Matrix) Inter() int64 { return m.Total() - m.Intra() }

// Intra returns the intra-ISP transfers (diagonal sum).
func (m *Matrix) Intra() int64 {
	var t int64
	for i := 0; i < m.n; i++ {
		t += m.cells[i*m.n+i]
	}
	return t
}

// EgressInter returns ISP src's cross-ISP egress (row sum minus diagonal).
func (m *Matrix) EgressInter(src isp.ID) int64 {
	if !m.valid(src) {
		return 0
	}
	var t int64
	for d := 0; d < m.n; d++ {
		if d != int(src) {
			t += m.cells[int(src)*m.n+d]
		}
	}
	return t
}

// IngressInter returns ISP dst's cross-ISP ingress (column sum minus
// diagonal).
func (m *Matrix) IngressInter(dst isp.ID) int64 {
	if !m.valid(dst) {
		return 0
	}
	var t int64
	for s := 0; s < m.n; s++ {
		if s != int(dst) {
			t += m.cells[s*m.n+int(dst)]
		}
	}
	return t
}

// Merge adds o cell-wise into m — the exact recombination of disjoint
// ledgers (per-shard, per-slot, per-scheduler). Dimensions must match.
func (m *Matrix) Merge(o *Matrix) error {
	if o == nil {
		return nil
	}
	if o.n != m.n {
		return fmt.Errorf("economics: cannot merge %d-ISP matrix into %d-ISP matrix", o.n, m.n)
	}
	for i, v := range o.cells {
		m.cells[i] += v
	}
	return nil
}

// Equal reports cell-wise equality (dimensions included).
func (m *Matrix) Equal(o *Matrix) bool {
	if o == nil || m.n != o.n {
		return false
	}
	for i, v := range m.cells {
		if v != o.cells[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{n: m.n, cells: append([]int64(nil), m.cells...)}
}

// Reset zeroes every cell, keeping the dimension.
func (m *Matrix) Reset() {
	for i := range m.cells {
		m.cells[i] = 0
	}
}

// Rows returns the matrix as fresh row slices (for display and export).
func (m *Matrix) Rows() [][]int64 {
	out := make([][]int64, m.n)
	for i := 0; i < m.n; i++ {
		out[i] = append([]int64(nil), m.cells[i*m.n:(i+1)*m.n]...)
	}
	return out
}

// MarshalJSON renders the matrix as its row slices.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Rows())
}

// UnmarshalJSON parses the row-slice form MarshalJSON emits, so exported
// run JSON (p2psim -json, the nightly artifacts) round-trips back into the
// library types. The rows must form a non-empty square.
func (m *Matrix) UnmarshalJSON(data []byte) error {
	var rows [][]int64
	if err := json.Unmarshal(data, &rows); err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("economics: traffic matrix JSON has no rows")
	}
	n := len(rows)
	cells := make([]int64, 0, n*n)
	for i, row := range rows {
		if len(row) != n {
			return fmt.Errorf("economics: traffic matrix row %d has %d cells, want %d", i, len(row), n)
		}
		cells = append(cells, row...)
	}
	m.n, m.cells = n, cells
	return nil
}

// FromGrants builds the traffic matrix of one scheduling result: each grant
// is one chunk from the granted uploader's ISP to the requesting peer's ISP.
// ispOf resolves peer→ISP (the sim world's topology lookup); an unresolvable
// peer or an out-of-instance grant is an error, not a silent drop.
func FromGrants(in *sched.Instance, grants []sched.Grant,
	ispOf func(isp.PeerID) (isp.ID, bool), numISPs int) (*Matrix, error) {
	m, err := NewMatrix(numISPs)
	if err != nil {
		return nil, err
	}
	for _, g := range grants {
		up, down, err := in.GrantEndpoints(g)
		if err != nil {
			return nil, fmt.Errorf("economics: %w", err)
		}
		src, ok := ispOf(up)
		if !ok {
			return nil, fmt.Errorf("economics: uploader %d has no ISP", up)
		}
		dst, ok := ispOf(down)
		if !ok {
			return nil, fmt.Errorf("economics: downloader %d has no ISP", down)
		}
		if err := m.Add(src, dst, 1); err != nil {
			return nil, err
		}
	}
	return m, nil
}
