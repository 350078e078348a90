package core

import (
	"fmt"
	"math"
	"slices"
)

// Edge is one admissible (request, sink) pair and its welfare weight
// v_c(d) − w_{u→d}.
type Edge struct {
	Sink   SinkID
	Weight float64
}

// Problem is one slot's chunk-scheduling instance: unit-demand requests,
// capacitated sinks and weighted admissible edges. Build it with AddSink /
// AddRequest / AddEdge (optionally presized by Grow); it is then safe for
// concurrent readers.
//
// All edges live in one slab. Each request's list is a capped window into
// it (len == cap), and the newest request's window always ends at the
// slab's end, so adding requests in order appends every edge in place. An
// AddEdge to an older request — or an append to a slice returned by Edges —
// finds no spare capacity and copies that one list out of the slab, never
// overwriting a neighbour.
type Problem struct {
	capacities []int
	edges      []Edge
	adj        [][]Edge
	numEdges   int
}

// NewProblem returns an empty instance.
func NewProblem() *Problem {
	return &Problem{}
}

// AddSink registers an uploading peer with the given capacity (B(u) chunks
// per slot) and returns its SinkID. Capacity must be non-negative.
func (p *Problem) AddSink(capacity int) (SinkID, error) {
	if capacity < 0 {
		return 0, fmt.Errorf("core: sink capacity must be >= 0, got %d", capacity)
	}
	p.capacities = append(p.capacities, capacity)
	return SinkID(len(p.capacities) - 1), nil
}

// Grow reserves room for at least the given numbers of further requests and
// edges, so building a problem of known size reallocates nothing. It never
// changes the problem's contents.
func (p *Problem) Grow(requests, edges int) {
	if requests > 0 {
		p.adj = slices.Grow(p.adj, requests)
	}
	if edges > 0 && cap(p.edges)-len(p.edges) < edges {
		p.edges = slices.Grow(p.edges, edges)
		if n := len(p.adj); n > 0 {
			// The newest request's window must end at the slab's end.
			p.adj[n-1] = p.tail(len(p.adj[n-1]))
		}
	}
}

// tail returns the slab's last k edges as a capped window.
func (p *Problem) tail(k int) []Edge {
	end := len(p.edges)
	return p.edges[end-k : end : end]
}

// AddRequest registers a unit-demand request and returns its RequestID.
func (p *Problem) AddRequest() RequestID {
	p.adj = append(p.adj, p.tail(0))
	return RequestID(len(p.adj) - 1)
}

// AddEdge declares that request r may be served by sink s with welfare w.
// Duplicate (r, s) edges are rejected; NaN/Inf weights are rejected.
func (p *Problem) AddEdge(r RequestID, s SinkID, w float64) error {
	if int(r) < 0 || int(r) >= len(p.adj) {
		return fmt.Errorf("core: unknown request %d", r)
	}
	if int(s) < 0 || int(s) >= len(p.capacities) {
		return fmt.Errorf("core: unknown sink %d", s)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("core: edge (%d,%d) weight %v is not finite", r, s, w)
	}
	for _, e := range p.adj[r] {
		if e.Sink == s {
			return fmt.Errorf("core: duplicate edge (%d,%d)", r, s)
		}
	}
	e := Edge{Sink: s, Weight: w}
	if int(r) == len(p.adj)-1 {
		p.edges = append(p.edges, e)
		p.adj[r] = p.tail(len(p.adj[r]) + 1)
	} else {
		p.adj[r] = slices.Clip(append(p.adj[r], e))
	}
	p.numEdges++
	return nil
}

// NumRequests returns the number of requests.
func (p *Problem) NumRequests() int { return len(p.adj) }

// NumSinks returns the number of sinks.
func (p *Problem) NumSinks() int { return len(p.capacities) }

// NumEdges returns the number of admissible edges.
func (p *Problem) NumEdges() int { return p.numEdges }

// Capacity returns sink s's capacity; it panics on an invalid id (programming
// error: SinkIDs are only minted by AddSink).
func (p *Problem) Capacity(s SinkID) int { return p.capacities[s] }

// TotalCapacity returns the sum of all sink capacities.
func (p *Problem) TotalCapacity() int {
	total := 0
	for _, c := range p.capacities {
		total += c
	}
	return total
}

// Edges returns request r's admissible edges. The returned slice is owned by
// the Problem and must not be mutated; it has no spare capacity, so an append
// to it copies.
func (p *Problem) Edges(r RequestID) []Edge { return p.adj[r] }

// Weight returns the weight of edge (r, s) and whether the edge exists.
func (p *Problem) Weight(r RequestID, s SinkID) (float64, bool) {
	if int(r) < 0 || int(r) >= len(p.adj) {
		return 0, false
	}
	for _, e := range p.adj[r] {
		if e.Sink == s {
			return e.Weight, true
		}
	}
	return 0, false
}

// MaxWeight returns the largest edge weight (0 for an edgeless problem); used
// to seed ε-scaling.
func (p *Problem) MaxWeight() float64 {
	maxW := 0.0
	for _, edges := range p.adj {
		for _, e := range edges {
			if e.Weight > maxW {
				maxW = e.Weight
			}
		}
	}
	return maxW
}

// Assignment is a solution: SinkOf[r] is the sink serving request r, or
// Unassigned.
type Assignment struct {
	SinkOf []SinkID
}

// NewAssignment returns an all-unassigned solution for n requests.
func NewAssignment(n int) *Assignment {
	a := &Assignment{SinkOf: make([]SinkID, n)}
	for i := range a.SinkOf {
		a.SinkOf[i] = Unassigned
	}
	return a
}

// Assigned returns the number of served requests.
func (a *Assignment) Assigned() int {
	n := 0
	for _, s := range a.SinkOf {
		if s != Unassigned {
			n++
		}
	}
	return n
}

// Welfare returns the total social welfare Σ (v − w) of the assignment under
// problem p. Assignments to non-edges contribute an error via Verify; Welfare
// itself counts only declared edges.
func (a *Assignment) Welfare(p *Problem) float64 {
	total := 0.0
	for r, s := range a.SinkOf {
		if s == Unassigned {
			continue
		}
		if w, ok := p.Weight(RequestID(r), s); ok {
			total += w
		}
	}
	return total
}

// Verify checks that the assignment is primal-feasible for p: every served
// request uses a declared edge and no sink exceeds its capacity.
func (a *Assignment) Verify(p *Problem) error {
	if len(a.SinkOf) != p.NumRequests() {
		return fmt.Errorf("core: assignment covers %d requests, problem has %d",
			len(a.SinkOf), p.NumRequests())
	}
	load := make([]int, p.NumSinks())
	for r, s := range a.SinkOf {
		if s == Unassigned {
			continue
		}
		if int(s) < 0 || int(s) >= p.NumSinks() {
			return fmt.Errorf("core: request %d assigned to unknown sink %d", r, s)
		}
		if _, ok := p.Weight(RequestID(r), s); !ok {
			return fmt.Errorf("core: request %d assigned to sink %d without an edge", r, s)
		}
		load[s]++
	}
	for s, l := range load {
		if l > p.capacities[s] {
			return fmt.Errorf("core: sink %d serves %d requests, capacity %d",
				s, l, p.capacities[s])
		}
	}
	return nil
}
