package sched

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isp"
	"repro/internal/randx"
	"repro/internal/video"
)

// randomInstance draws one slot of a swarm: peers peers with capacities
// 1..3, each wanting one to three chunks from random neighbours at integer
// values and costs. Chunk indices repeat about half the time, and a
// (peer, chunk) key drawn twice keeps its first request.
func randomInstance(t *testing.T, seed uint64, peers int) *Instance {
	t.Helper()
	rng := randx.New(seed)
	uploaders := make([]Uploader, peers)
	for i := range uploaders {
		uploaders[i] = Uploader{Peer: isp.PeerID(100 + i), Capacity: 1 + rng.Intn(3)}
	}
	var reqs []Request
	seen := make(map[reqKey]bool)
	nextChunk := 0
	for _, p := range uploaders {
		wants := 1 + rng.Intn(3)
		for c := 0; c < wants; c++ {
			var cands []Candidate
			for _, u := range uploaders {
				if u.Peer != p.Peer && rng.Float64() < 0.5 {
					cands = append(cands, Candidate{Peer: u.Peer, Cost: float64(rng.Intn(5))})
				}
			}
			if len(cands) == 0 {
				continue
			}
			idx := nextChunk
			if nextChunk > 0 && rng.Float64() < 0.5 {
				idx = rng.Intn(nextChunk)
			} else {
				nextChunk++
			}
			chunk := video.ChunkID{Video: 0, Index: video.ChunkIndex(idx)}
			value := float64(2 + rng.Intn(8))
			if k := keyOf(p.Peer, chunk); !seen[k] {
				seen[k] = true
				reqs = append(reqs, Request{Peer: p.Peer, Chunk: chunk, Value: value, Candidates: cands})
			}
		}
	}
	in, err := NewInstance(reqs, uploaders)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func smallInstance(t *testing.T) *Instance {
	t.Helper()
	reqs := []Request{
		{
			Peer: 1, Chunk: video.ChunkID{Video: 0, Index: 5}, Value: 6, Deadline: 2,
			Candidates: []Candidate{{Peer: 10, Cost: 1}, {Peer: 11, Cost: 4}},
		},
		{
			Peer: 2, Chunk: video.ChunkID{Video: 0, Index: 6}, Value: 5, Deadline: 4,
			Candidates: []Candidate{{Peer: 10, Cost: 2}},
		},
	}
	in, err := NewInstance(reqs, []Uploader{{Peer: 10, Capacity: 1}, {Peer: 11, Capacity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(nil, []Uploader{{Peer: 1, Capacity: 1}, {Peer: 1, Capacity: 2}}); err == nil {
		t.Error("duplicate uploader should error")
	}
	if _, err := NewInstance(nil, []Uploader{{Peer: 1, Capacity: -1}}); err == nil {
		t.Error("negative capacity should error")
	}
	reqs := []Request{{Peer: 1, Candidates: []Candidate{{Peer: 99}}}}
	if _, err := NewInstance(reqs, []Uploader{{Peer: 1, Capacity: 1}}); err == nil {
		t.Error("candidate referencing unknown uploader should error")
	}
}

func TestWelfareAndValidate(t *testing.T) {
	in := smallInstance(t)
	grants := []Grant{{Request: 0, Uploader: 10}, {Request: 1, Uploader: 10}}
	if err := in.Validate(grants); err == nil {
		t.Error("over-capacity grants should fail validation")
	}
	grants = []Grant{{Request: 0, Uploader: 11}, {Request: 1, Uploader: 10}}
	if err := in.Validate(grants); err != nil {
		t.Fatal(err)
	}
	w, err := in.Welfare(grants)
	if err != nil {
		t.Fatal(err)
	}
	// (6−4) + (5−2) = 5.
	if math.Abs(w-5) > 1e-12 {
		t.Fatalf("welfare = %v", w)
	}
	if err := in.Validate([]Grant{{Request: 0, Uploader: 10}, {Request: 0, Uploader: 11}}); err == nil {
		t.Error("double grant should fail")
	}
	if err := in.Validate([]Grant{{Request: 5, Uploader: 10}}); err == nil {
		t.Error("unknown request should fail")
	}
	if err := in.Validate([]Grant{{Request: 1, Uploader: 11}}); err == nil {
		t.Error("non-candidate edge should fail")
	}
}

// TestResolveEdgesAndLoad pins Resolve: it hands back each grant's row and
// cost in grant order, leaves the per-row grant counts, and rejects
// exactly what Validate rejects, with the same error.
func TestResolveEdgesAndLoad(t *testing.T) {
	in := smallInstance(t)
	seen := make([]bool, 2)
	load := make([]int32, 2)
	edges := make([]GrantEdge, 2)
	grants := []Grant{{Request: 1, Uploader: 10}, {Request: 0, Uploader: 11}}
	if err := in.Resolve(grants, seen, load, edges); err != nil {
		t.Fatal(err)
	}
	if want := []GrantEdge{{Row: 0, Cost: 2}, {Row: 1, Cost: 4}}; !slices.Equal(edges, want) {
		t.Errorf("edges %v, want %v", edges, want)
	}
	if want := []int32{1, 1}; !slices.Equal(load, want) {
		t.Errorf("load %v, want %v", load, want)
	}
	for _, c := range []struct {
		grants []Grant
		want   string
	}{
		{[]Grant{{Request: 2, Uploader: 10}}, "sched: grant for unknown request 2"},
		{[]Grant{{Request: 0, Uploader: 10}, {Request: 0, Uploader: 11}}, "sched: request 0 granted twice"},
		{[]Grant{{Request: 1, Uploader: 11}}, "sched: grant 1→11 is not a candidate edge"},
		{[]Grant{{Request: 0, Uploader: 10}, {Request: 1, Uploader: 10}}, "sched: uploader 10 over capacity: 2 > 1"},
	} {
		clear(seen)
		clear(load)
		if err := in.Resolve(c.grants, seen, load, nil); err == nil || err.Error() != c.want {
			t.Errorf("grants %v: Resolve %v, want %q", c.grants, err, c.want)
		}
		if err := in.Validate(c.grants); err == nil || err.Error() != c.want {
			t.Errorf("grants %v: Validate %v, want %q", c.grants, err, c.want)
		}
	}
}

func TestAuctionSchedulerOptimal(t *testing.T) {
	in := smallInstance(t)
	res, err := (&Auction{Epsilon: 0.01}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(res.Grants); err != nil {
		t.Fatal(err)
	}
	w, err := in.Welfare(res.Grants)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: req0→10 (6−1=5), req1 can only use 10 — conflict. Best is
	// req0→11 (2) + req1→10 (3) = 5, or req0→10 (5) + req1 unserved = 5.
	// Either way welfare ≈ 5.
	if w < 5-2*0.01-1e-9 {
		t.Fatalf("welfare = %v, want ≈5", w)
	}
	if res.Prices == nil {
		t.Fatal("auction scheduler should report prices")
	}
	if res.Stats["bids"] <= 0 {
		t.Fatalf("stats missing: %+v", res.Stats)
	}
}

func TestAuctionSchedulerDeclinesNegative(t *testing.T) {
	reqs := []Request{{
		Peer: 1, Chunk: video.ChunkID{Index: 1}, Value: 1, Deadline: 9,
		Candidates: []Candidate{{Peer: 10, Cost: 8}},
	}}
	in, err := NewInstance(reqs, []Uploader{{Peer: 10, Capacity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Auction{Epsilon: 0.01}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) != 0 {
		t.Fatalf("negative-utility request should be declined: %+v", res.Grants)
	}
}

func TestUploaderIndexAndCost(t *testing.T) {
	in := smallInstance(t)
	if i, ok := in.UploaderIndex(11); !ok || i != 1 {
		t.Fatalf("UploaderIndex(11) = %d,%v", i, ok)
	}
	if _, ok := in.UploaderIndex(isp.PeerID(77)); ok {
		t.Fatal("unknown uploader should miss")
	}
	if c, ok := in.Cost(0, 11); !ok || c != 4 {
		t.Fatalf("Cost(0,11) = %v,%v", c, ok)
	}
	if _, ok := in.Cost(1, 11); ok {
		t.Fatal("non-candidate cost should miss")
	}
}

// TestExactMatchesAuctionWelfare checks the exact scheduler produces valid
// grants whose welfare is at least the auction's on the same instance.
func TestExactMatchesAuctionWelfare(t *testing.T) {
	in := smallInstance(t)
	exact, err := (&Exact{}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(exact.Grants); err != nil {
		t.Fatalf("exact grants invalid: %v", err)
	}
	auction, err := (&Auction{Epsilon: 0.01}).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := in.Welfare(exact.Grants)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := in.Welfare(auction.Grants)
	if err != nil {
		t.Fatal(err)
	}
	if ew+1e-9 < aw {
		t.Fatalf("exact welfare %v below auction %v", ew, aw)
	}
}

// allocsInstance builds a NewInstance of n requests over a fixed set of 50
// uploaders, each request with 6 candidates.
func allocsInstance(t *testing.T, n int) *Instance {
	t.Helper()
	const uploaders = 50
	ups := make([]Uploader, uploaders)
	for i := range ups {
		ups[i] = Uploader{Peer: isp.PeerID(1000 + i), Capacity: 3}
	}
	reqs := make([]Request, n)
	for r := range reqs {
		cands := make([]Candidate, 6)
		for k := range cands {
			cands[k] = Candidate{Peer: ups[(r+7*k)%uploaders].Peer, Cost: float64(k) / 10}
		}
		reqs[r] = Request{Peer: isp.PeerID(r), Value: 2, Deadline: float64(r % 5), Candidates: cands}
	}
	in, err := NewInstance(reqs, ups)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestBuildProblemAllocs pins the cold build's allocation count: the
// problem is presized from the instance, so translating 10k requests costs
// exactly as many allocations as 1k — the Problem, its sink, request and
// edge slabs, and the row stamp: 4 measured, 7 under the race detector (10
// and 12 when the capacity slice still grew sink by sink). The collector is paused while counting, so allocations
// the runtime makes during a GC cycle are not charged to the build.
func TestBuildProblemAllocs(t *testing.T) {
	const bound = 12
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, n := range []int{1000, 10000} {
		in := allocsInstance(t, n)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := buildProblem(in); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > bound {
		t.Fatalf("buildProblem allocs at 1k / 10k requests = %v / %v, want equal and <= %d",
			counts[0], counts[1], bound)
	}
}

// TestAuctionReusedProblemMatchesFresh pins the kept problem's rebuild: one
// Auction solves instances that grow, shrink and grow again, and every
// result — grants, prices and stats — must be bit-equal to a fresh
// Auction's on the same instance, so nothing of an earlier round's problem
// survives into a later one.
func TestAuctionReusedProblemMatchesFresh(t *testing.T) {
	instances := []*Instance{
		randomInstance(t, 5, 30),
		allocsInstance(t, 2000),
		randomInstance(t, 6, 4),
		allocsInstance(t, 60),
		randomInstance(t, 7, 60),
		allocsInstance(t, 3000),
	}
	reused := &Auction{Epsilon: 0.01}
	for i, in := range instances {
		got, err := reused.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&Auction{Epsilon: 0.01}).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Grants) == 0 {
			t.Fatalf("instance %d: nothing granted; the fixture is vacuous", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d (%d requests): the reused Auction's result differs from a fresh one's", i, len(in.Requests))
		}
	}
}

// TestAuctionScheduleAllocs pins the cold slot's steady-state cost: an
// Auction rebuilds the one core.Problem it keeps and reloads the one
// core.Solver it keeps, so after the first round a Schedule allocates the
// same count at 1k and 10k requests — the grants and the price map, nothing
// of the build or the solve: 8 measured. Its bytes are those two results
// alone, bounded by the 50 uploaders' capacity and not by the request
// count: 4.2 KB measured at both sizes, under the race detector too. The
// budget is 8 KB, a fifteenth of the smaller instance's edge slab, so a
// build that allocated its slab per round again breaks it. The collector is
// paused while counting.
func TestAuctionScheduleAllocs(t *testing.T) {
	const budget = 8 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, n := range []int{1000, 10000} {
		in := allocsInstance(t, n)
		a := &Auction{Epsilon: 0.01}
		if _, err := a.Schedule(in); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := a.Schedule(in); err != nil {
				t.Fatal(err)
			}
		}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := a.Schedule(in); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("Schedule of %d requests allocated %d B, budget %d B", n, got, budget)
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("Schedule allocs at 1k / 10k requests = %v / %v, want equal", counts[0], counts[1])
	}
}

// addEdgeProblem is fillProblem's referee: the same problem built one
// checked core.Problem.AddEdge at a time.
func addEdgeProblem(in *Instance) (*core.Problem, error) {
	p := core.NewProblem()
	for _, u := range in.Uploaders {
		if _, err := p.AddSink(u.Capacity); err != nil {
			return nil, err
		}
	}
	for i := range in.Requests {
		req := &in.Requests[i]
		r := p.AddRequest()
		for k, ui := range in.Rows(i) {
			if err := p.AddEdge(r, core.SinkID(ui), req.Value-req.Candidates[k].Cost); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// TestFillProblemMatchesAddEdge pins the one-pass fill to the per-edge
// build it replaced. On seeded random instances, filled through one kept
// stamp as an Auction fills them round after round (once across a wrap of
// the stamp's mark), the problem must equal the AddEdge-built one edge for
// edge, bit for bit, with the same capacities. A repeated candidate and a
// NaN or infinite Value − Cost must be rejected by both builds, and by
// Auction.Schedule and Exact.Schedule.
func TestFillProblemMatchesAddEdge(t *testing.T) {
	var stamp rowStamp
	var p core.Problem
	for seed := uint64(1); seed <= 40; seed++ {
		in := randomInstance(t, seed, 2+int(seed%13))
		if seed == 20 {
			// Wrap the mark within this fill, as if every row had last
			// been listed at mark 1, a full cycle of marks ago.
			stamp.mark = math.MaxUint32 - 3
			for i := range stamp.seen {
				stamp.seen[i] = 1
			}
		}
		p.Reset()
		if err := fillProblem(&p, in, &stamp); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := addEdgeProblem(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.NumSinks() != want.NumSinks() || p.NumRequests() != want.NumRequests() || p.NumEdges() != want.NumEdges() {
			t.Fatalf("seed %d: filled %d sinks / %d requests / %d edges, AddEdge built %d / %d / %d", seed,
				p.NumSinks(), p.NumRequests(), p.NumEdges(), want.NumSinks(), want.NumRequests(), want.NumEdges())
		}
		for s := range p.NumSinks() {
			if p.Capacity(core.SinkID(s)) != want.Capacity(core.SinkID(s)) {
				t.Fatalf("seed %d: sink %d capacity %d, want %d", seed, s, p.Capacity(core.SinkID(s)), want.Capacity(core.SinkID(s)))
			}
		}
		for r := range p.NumRequests() {
			if got, want := p.Edges(core.RequestID(r)), want.Edges(core.RequestID(r)); !slices.Equal(got, want) {
				t.Fatalf("seed %d: request %d edges %v, want %v", seed, r, got, want)
			}
		}
	}
	if stamp.mark >= math.MaxUint32-3 {
		t.Fatal("the stamp's mark never wrapped; the fixture is vacuous")
	}

	bad := map[string]func(*Request){
		"repeated candidate": func(r *Request) { r.Candidates = append(r.Candidates, r.Candidates[0]) },
		"NaN weight":         func(r *Request) { r.Value = math.NaN() },
		"+Inf weight":        func(r *Request) { r.Value = math.Inf(1) },
		"-Inf weight":        func(r *Request) { r.Candidates[len(r.Candidates)-1].Cost = math.Inf(1) },
	}
	for name, spoil := range bad {
		base := randomInstance(t, 7, 8)
		reqs := make([]Request, len(base.Requests))
		for i, r := range base.Requests {
			r.Candidates = slices.Clone(r.Candidates)
			reqs[i] = r
		}
		spoil(&reqs[len(reqs)/2])
		in, err := NewInstance(reqs, base.Uploaders)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := addEdgeProblem(in); err == nil {
			t.Errorf("%s: the AddEdge build accepted it", name)
		}
		p.Reset()
		if err := fillProblem(&p, in, &stamp); err == nil {
			t.Errorf("%s: fillProblem accepted it", name)
		}
		if _, err := (&Auction{Epsilon: 0.01}).Schedule(in); err == nil {
			t.Errorf("%s: Auction.Schedule accepted it", name)
		}
		if _, err := (&Exact{}).Schedule(in); err == nil {
			t.Errorf("%s: Exact.Schedule accepted it", name)
		}
	}
}

// TestScheduleViewRejectsEdgeOutsideShard pins the view's exactness check:
// a shard is a whole component, so a request whose candidate row lies
// outside the view's uploaders is an error, not an edge to drop.
func TestScheduleViewRejectsEdgeOutsideShard(t *testing.T) {
	in, err := NewInstance([]Request{{Peer: 10, Value: 5,
		Candidates: []Candidate{{Peer: 1, Cost: 1}, {Peer: 2, Cost: 1}}}},
		[]Uploader{{Peer: 1, Capacity: 1}, {Peer: 2, Capacity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	v := View{Requests: []int{0}, Uploaders: []int{0}, SinkOf: []int32{0, -1}}
	_, err = new(Auction).ScheduleView(in, &v, make([]int32, 1), make([]float64, 2))
	if err == nil || !strings.Contains(err.Error(), "request 0 names uploader row 1 outside its shard") {
		t.Fatalf("edge outside the shard: err = %v", err)
	}
}
