package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/randx"
)

func TestProblemBuilding(t *testing.T) {
	p := NewProblem()
	s0, err := p.AddSink(2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.AddSink(0)
	if err != nil {
		t.Fatal(err)
	}
	r0 := p.AddRequest()
	r1 := p.AddRequest()
	if err := p.AddEdge(r0, s0, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r0, s1, -1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r1, s0, 2); err != nil {
		t.Fatal(err)
	}
	if p.NumRequests() != 2 || p.NumSinks() != 2 || p.NumEdges() != 3 {
		t.Fatalf("counts wrong: %d req %d sinks %d edges",
			p.NumRequests(), p.NumSinks(), p.NumEdges())
	}
	if p.Capacity(s0) != 2 || p.Capacity(s1) != 0 {
		t.Fatal("capacities wrong")
	}
	if p.TotalCapacity() != 2 {
		t.Fatalf("TotalCapacity = %d", p.TotalCapacity())
	}
	if w, ok := p.Weight(r0, s0); !ok || w != 3.5 {
		t.Fatalf("Weight(r0,s0) = %v,%v", w, ok)
	}
	if _, ok := p.Weight(r1, s1); ok {
		t.Fatal("nonexistent edge reported present")
	}
	if got := p.MaxWeight(); got != 3.5 {
		t.Fatalf("MaxWeight = %v", got)
	}
}

func TestProblemValidation(t *testing.T) {
	p := NewProblem()
	if _, err := p.AddSink(-1); err == nil {
		t.Error("negative capacity should error")
	}
	s, _ := p.AddSink(1)
	r := p.AddRequest()
	if err := p.AddEdge(r, SinkID(9), 1); err == nil {
		t.Error("unknown sink should error")
	}
	if err := p.AddEdge(RequestID(9), s, 1); err == nil {
		t.Error("unknown request should error")
	}
	if err := p.AddEdge(r, s, math.NaN()); err == nil {
		t.Error("NaN weight should error")
	}
	if err := p.AddEdge(r, s, math.Inf(1)); err == nil {
		t.Error("Inf weight should error")
	}
	if err := p.AddEdge(r, s, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r, s, 2); err == nil {
		t.Error("duplicate edge should error")
	}
}

func TestAssignmentWelfareAndVerify(t *testing.T) {
	p := NewProblem()
	s0, _ := p.AddSink(1)
	s1, _ := p.AddSink(1)
	r0 := p.AddRequest()
	r1 := p.AddRequest()
	if err := p.AddEdge(r0, s0, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r1, s0, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r1, s1, 1); err != nil {
		t.Fatal(err)
	}

	a := NewAssignment(2)
	if a.Assigned() != 0 {
		t.Fatal("fresh assignment should be empty")
	}
	a.SinkOf[r0] = s0
	a.SinkOf[r1] = s1
	if err := a.Verify(p); err != nil {
		t.Fatal(err)
	}
	if got := a.Welfare(p); got != 5 {
		t.Fatalf("welfare = %v, want 5", got)
	}
	if a.Assigned() != 2 {
		t.Fatalf("Assigned = %d", a.Assigned())
	}

	// Two requests on a capacity-1 sink must fail verification.
	a.SinkOf[r1] = s0
	if err := a.Verify(p); err == nil {
		t.Fatal("capacity violation not caught")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	p := NewProblem()
	s0, _ := p.AddSink(1)
	r0 := p.AddRequest()
	r1 := p.AddRequest()
	if err := p.AddEdge(r0, s0, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddEdge(r1, s0, 2); err != nil {
		t.Fatal(err)
	}

	overCap := NewAssignment(2)
	overCap.SinkOf[r0] = s0
	overCap.SinkOf[r1] = s0
	if err := overCap.Verify(p); err == nil {
		t.Error("capacity violation not caught")
	}

	noEdge := NewAssignment(2)
	noEdge.SinkOf[r0] = SinkID(0)
	noEdge.SinkOf[r1] = Unassigned
	if err := noEdge.Verify(p); err != nil {
		t.Errorf("legal assignment rejected: %v", err)
	}

	badSink := NewAssignment(2)
	badSink.SinkOf[r0] = SinkID(5)
	if err := badSink.Verify(p); err == nil {
		t.Error("unknown sink not caught")
	}

	wrongLen := NewAssignment(1)
	if err := wrongLen.Verify(p); err == nil {
		t.Error("length mismatch not caught")
	}
}

// problemSpec is a problem written down independently of any build order:
// sink capacities and each request's edges in the order they are added.
type problemSpec struct {
	caps  []int
	edges [][]Edge
}

func randomSpec(rng *randx.Source) problemSpec {
	var sp problemSpec
	nSink := 1 + rng.Intn(6)
	for range nSink {
		sp.caps = append(sp.caps, rng.Intn(3))
	}
	sp.edges = make([][]Edge, rng.Intn(14))
	for r := range sp.edges {
		for _, s := range rng.Perm(nSink) {
			if rng.Float64() < 0.6 {
				sp.edges[r] = append(sp.edges[r], Edge{Sink: SinkID(s), Weight: rng.Range(-3, 12)})
			}
		}
	}
	return sp
}

func (sp problemSpec) numEdges() int {
	n := 0
	for _, es := range sp.edges {
		n += len(es)
	}
	return n
}

func (sp problemSpec) sinks(t *testing.T, p *Problem) {
	t.Helper()
	for _, c := range sp.caps {
		if _, err := p.AddSink(c); err != nil {
			t.Fatal(err)
		}
	}
}

func mustAddEdge(t *testing.T, p *Problem, r RequestID, e Edge) {
	t.Helper()
	if err := p.AddEdge(r, e.Sink, e.Weight); err != nil {
		t.Fatal(err)
	}
}

// buildInOrder adds each request and then all of its edges, newest request
// first; grow presizes the problem up front and again midway, the second
// time while the newest request already holds edges.
func (sp problemSpec) buildInOrder(t *testing.T, grow bool) *Problem {
	p := NewProblem()
	sp.sinks(t, p)
	if grow {
		p.Grow(len(sp.edges)/2, sp.numEdges()/2)
	}
	for i, es := range sp.edges {
		r := p.AddRequest()
		for k, e := range es {
			if grow && i == len(sp.edges)/2 && k == 1 {
				p.Grow(len(sp.edges), sp.numEdges())
			}
			mustAddEdge(t, p, r, e)
		}
	}
	return p
}

// buildInterleaved mixes AddRequest with AddEdge calls on random existing
// requests, so most edges land on a request older than the newest. Each
// request still receives its own edges in spec order.
func (sp problemSpec) buildInterleaved(t *testing.T, rng *randx.Source) *Problem {
	p := NewProblem()
	sp.sinks(t, p)
	next := make([]int, len(sp.edges))
	var pending []int // requests added with edges still to come
	for added := 0; added < len(sp.edges) || len(pending) > 0; {
		if added < len(sp.edges) && (len(pending) == 0 || rng.Float64() < 0.3) {
			p.AddRequest()
			if len(sp.edges[added]) > 0 {
				pending = append(pending, added)
			}
			added++
			continue
		}
		k := rng.Intn(len(pending))
		r := pending[k]
		mustAddEdge(t, p, RequestID(r), sp.edges[r][next[r]])
		if next[r]++; next[r] == len(sp.edges[r]) {
			pending = append(pending[:k], pending[k+1:]...)
		}
	}
	return p
}

// TestProblemBuildOrderInvariance: the edge slab is invisible. Whatever
// order a problem is built in, with or without Grow, it reads back the same
// and every solver returns the same assignment and prices.
func TestProblemBuildOrderInvariance(t *testing.T) {
	rng := randx.New(77)
	for trial := range 300 {
		sp := randomSpec(rng)
		ref := sp.buildInOrder(t, false)
		for name, p := range map[string]*Problem{
			"grown":       sp.buildInOrder(t, true),
			"interleaved": sp.buildInterleaved(t, rng),
		} {
			if p.NumRequests() != len(sp.edges) || p.NumEdges() != sp.numEdges() {
				t.Fatalf("trial %d %s: %d requests %d edges, want %d and %d",
					trial, name, p.NumRequests(), p.NumEdges(), len(sp.edges), sp.numEdges())
			}
			if p.MaxWeight() != ref.MaxWeight() {
				t.Fatalf("trial %d %s: MaxWeight %v, want %v", trial, name, p.MaxWeight(), ref.MaxWeight())
			}
			for r, want := range sp.edges {
				if got := p.Edges(RequestID(r)); !slices.Equal(got, want) || len(got) != cap(got) {
					t.Fatalf("trial %d %s: Edges(%d) = %v (cap %d), want %v", trial, name, r, got, cap(got), want)
				}
			}
			for _, opts := range []AuctionOptions{{Epsilon: 0.01}, {Epsilon: 0.01, Mode: Jacobi}} {
				a, b := solveOrFatal(t, ref, opts), solveOrFatal(t, p, opts)
				if !slices.Equal(a.Assignment.SinkOf, b.Assignment.SinkOf) || !slices.Equal(a.Prices, b.Prices) {
					t.Fatalf("trial %d %s mode %d: auction differs: %v %v vs %v %v", trial, name, opts.Mode,
						a.Assignment.SinkOf, a.Prices, b.Assignment.SinkOf, b.Prices)
				}
			}
			ea, err := SolveExact(ref)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := SolveExact(p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ea.SinkOf, eb.SinkOf) {
				t.Fatalf("trial %d %s: exact differs: %v vs %v", trial, name, ea.SinkOf, eb.SinkOf)
			}
		}
	}
}

// TestProblemOlderRequestAppendsKeepNeighbours: request r+1's edges sit
// right after request r's in the slab, so neither an append to Edges(r) nor
// an AddEdge to r may write into them.
func TestProblemOlderRequestAppendsKeepNeighbours(t *testing.T) {
	p := NewProblem()
	for range 4 {
		if _, err := p.AddSink(1); err != nil {
			t.Fatal(err)
		}
	}
	p.Grow(2, 16) // spare slab capacity after every edge below
	r0 := p.AddRequest()
	mustAddEdge(t, p, r0, Edge{0, 1})
	mustAddEdge(t, p, r0, Edge{1, 2})
	r1 := p.AddRequest()
	mustAddEdge(t, p, r1, Edge{2, 10})
	mustAddEdge(t, p, r1, Edge{3, 11})
	want1 := []Edge{{2, 10}, {3, 11}}

	_ = append(p.Edges(r0), Edge{Sink: 3, Weight: 99})
	if got := p.Edges(r1); !slices.Equal(got, want1) {
		t.Fatalf("append to Edges(r0) overwrote request 1: %v", got)
	}
	mustAddEdge(t, p, r0, Edge{2, 3})
	if got := p.Edges(r1); !slices.Equal(got, want1) {
		t.Fatalf("AddEdge to request 0 overwrote request 1: %v", got)
	}
	if err := p.AddEdge(r0, 1, 4); err == nil {
		t.Error("duplicate edge on an older request should error")
	}
	grown := append(p.Edges(r1), Edge{Sink: 0, Weight: 98})
	mustAddEdge(t, p, r1, Edge{1, 12})

	if got, want := p.Edges(r0), []Edge{{0, 1}, {1, 2}, {2, 3}}; !slices.Equal(got, want) {
		t.Errorf("Edges(r0) = %v, want %v", got, want)
	}
	if got, want := p.Edges(r1), append(want1, Edge{1, 12}); !slices.Equal(got, want) {
		t.Errorf("Edges(r1) = %v, want %v", got, want)
	}
	if grown[2] != (Edge{0, 98}) {
		t.Errorf("caller's appended copy of Edges(r1) was overwritten: %v", grown)
	}
	if p.NumEdges() != 6 {
		t.Errorf("NumEdges = %d, want 6", p.NumEdges())
	}
}
