package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/isp"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/video"
)

// The daemon-rebid workload: an in-process schedulerd with manual slots,
// driven through its HTTP handler (no sockets) by one closed-loop client.
// Each tick is a few leave/join calls, an offer from every uploader, a bid
// batch from every downloader, POST /v1/tick and a grant poll per bidder.
// The client prepares every request before the tick's timed section and
// reads the answers after it, so the timed section is the daemon's handler
// calls back to back.
const (
	daemonWarmupTicks = 60
	exactEvery        = 50 // ticks between sched.Exact checks
	scrapeEvery       = 10 // ticks between /metrics scrapes for the carried gauge
)

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(s int) {
	if r.status == 0 {
		r.status = s
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// op is one prepared HTTP call and, once served, its answer.
type op struct {
	req    *http.Request
	kind   opKind
	peer   *genPeer
	status int
	lat    time.Duration
	// from/to delimit the answer in daemonRun.answers (ticks and polls).
	from, to int
}

type opKind int

const (
	opChurn opKind = iota
	opOffer
	opBid
	opTick
	opPoll
)

// daemonRun is one daemon and the client driving it.
type daemonRun struct {
	d       *service.Daemon
	h       http.Handler
	gen     *generator
	rec     recorder
	ops     []op
	answers []byte    // the tick's tick and poll answers, back to back
	stream  io.Writer // receives every request line and body (tests)

	ticks    int
	prevKeys map[bidKey]bool
	prevUps  map[int64]bool
	thm2     thm2Tally
	errs     []error
	// probe is a second daemon that receives each bid batch through a
	// direct Daemon.Bid call in the traced window, timing the book alone.
	probe *service.Daemon
}

type bidKey struct {
	peer  int64
	video int32
	chunk int32
}

// newDaemon starts a daemon with default options and manual slots.
func newDaemon() (*service.Daemon, error) {
	opts := service.DefaultOptions()
	opts.SlotInterval = 0
	return service.New(opts)
}

func newDaemonRun(seed uint64) (*daemonRun, error) {
	d, err := newDaemon()
	if err != nil {
		return nil, err
	}
	return &daemonRun{d: d, h: d.Handler(), gen: newGenerator(seed), rec: recorder{hdr: http.Header{}}}, nil
}

// add prepares one call.
func (r *daemonRun) add(kind opKind, p *genPeer, method, target string, body []byte) error {
	if r.stream != nil {
		fmt.Fprintf(r.stream, "%s %s %s\n", method, target, body)
	}
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		return err
	}
	r.ops = append(r.ops, op{req: req, kind: kind, peer: p})
	return nil
}

// serve runs the prepared calls back to back and returns their total time.
func (r *daemonRun) serve() time.Duration {
	r.answers = r.answers[:0]
	t0 := time.Now()
	for i := range r.ops {
		o := &r.ops[i]
		clear(r.rec.hdr)
		r.rec.body.Reset()
		r.rec.status = 0
		t := time.Now()
		r.h.ServeHTTP(&r.rec, o.req)
		o.lat = time.Since(t)
		o.status = r.rec.status
		if o.kind == opTick || o.kind == opPoll {
			o.from = len(r.answers)
			r.answers = append(r.answers, r.rec.body.Bytes()...)
			o.to = len(r.answers)
		}
	}
	return time.Since(t0)
}

// join registers the initial population.
func (r *daemonRun) join() error {
	r.ops = r.ops[:0]
	for i := 0; i < genPeers; i++ {
		capacity := 0
		if i%uploaderEvery == 0 {
			// Capacities cycle through minUpCapacity..maxUpCapacity.
			capacity = minUpCapacity + (i/uploaderEvery)%(maxUpCapacity-minUpCapacity+1)
		}
		p := r.gen.join(capacity)
		if err := r.add(opChurn, p, http.MethodPost, "/v1/join", appendJoin(nil, p)); err != nil {
			return err
		}
	}
	r.serve()
	return r.statusErr()
}

func (r *daemonRun) statusErr() error {
	for _, o := range r.ops {
		if o.status != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", o.req.Method, o.req.URL, o.status)
		}
	}
	return nil
}

// prepare draws the tick's churn and bids and builds every request.
func (r *daemonRun) prepare() error {
	r.ops = r.ops[:0]
	g := r.gen
	for k := 0; k < churnPerTick; k++ {
		up := (r.ticks*churnPerTick+k)%uploaderEvery == 0
		gone := g.leave(up)
		if err := r.add(opChurn, gone, http.MethodPost, "/v1/leave", appendPeer(nil, gone.id)); err != nil {
			return err
		}
		p := g.join(gone.capacity) // a replacement in the same role, with the same capacity
		if err := r.add(opChurn, p, http.MethodPost, "/v1/join", appendJoin(nil, p)); err != nil {
			return err
		}
	}
	for _, p := range g.ups {
		if err := r.add(opOffer, p, http.MethodPost, "/v1/offer", appendOffer(nil, p)); err != nil {
			return err
		}
	}
	for _, p := range g.peers {
		if p.uploader {
			continue
		}
		g.plan(p)
		if err := r.add(opBid, p, http.MethodPost, "/v1/bid", appendBids(nil, p)); err != nil {
			return err
		}
	}
	if err := r.add(opTick, nil, http.MethodPost, "/v1/tick", nil); err != nil {
		return err
	}
	for _, p := range g.peers {
		if !p.uploader {
			target := "/v1/grants?peer=" + strconv.FormatInt(p.id, 10)
			if err := r.add(opPoll, p, http.MethodGet, target, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// tickOutcome is what the client learned from one tick.
type tickOutcome struct {
	resp   service.TickResponse
	grants map[bidKey]service.WireGrant
	failed int // calls answered with an error status
}

// collect reads the tick's answers, records the grants in the generator
// and slides every downloader's window.
func (r *daemonRun) collect() (tickOutcome, error) {
	out := tickOutcome{grants: make(map[bidKey]service.WireGrant)}
	var poll service.GrantsResponse
	for i := range r.ops {
		o := &r.ops[i]
		body := r.answers[o.from:o.to]
		if o.status != http.StatusOK {
			out.failed++
			if o.kind == opTick {
				return out, fmt.Errorf("tick %d: POST /v1/tick: status %d: %s", r.ticks, o.status, body)
			}
			continue
		}
		switch o.kind {
		case opTick:
			if err := json.Unmarshal(body, &out.resp); err != nil {
				return out, fmt.Errorf("tick %d: decoding tick answer: %w", r.ticks, err)
			}
		case opPoll:
			poll.Grants = poll.Grants[:0]
			if err := json.Unmarshal(body, &poll); err != nil {
				return out, fmt.Errorf("tick %d: decoding grants: %w", r.ticks, err)
			}
			for _, gr := range poll.Grants {
				out.grants[bidKey{o.peer.id, gr.Video, gr.Chunk}] = gr
				o.peer.granted(gr.Chunk)
			}
		}
	}
	for _, p := range r.gen.peers {
		p.advance()
	}
	r.ticks++
	return out, nil
}

// tick runs one closed-loop tick; with a window open it is measured and
// checked.
func (r *daemonRun) tick(w *window) error {
	if w == nil {
		if err := r.prepare(); err != nil {
			return err
		}
		r.serve()
		out, err := r.collect()
		if err == nil && out.failed > 0 {
			err = fmt.Errorf("tick %d: %d calls failed during warm-up", r.ticks-1, out.failed)
		}
		return err
	}
	var err error
	w.exclude(func() {
		err = r.prepare()
		if err == nil && r.probe != nil {
			r.timeBook(w)
		}
	})
	if err != nil {
		return err
	}
	loop := r.serve()
	var out tickOutcome
	w.exclude(func() {
		out, err = r.collect()
		if err == nil {
			r.record(w, loop, out)
			r.check(w, out)
		}
	})
	return err
}

// timeBook sends each of the tick's bid batches to the probe daemon through
// a direct Daemon.Bid call and times it; the probe then ticks (untimed) so
// its book drains like the main one.
func (r *daemonRun) timeBook(w *window) {
	for _, o := range r.ops {
		switch {
		case o.kind == opChurn && o.req.URL.Path == "/v1/join":
			_ = r.probe.Join(isp.PeerID(o.peer.id), isp.ID(o.peer.isp)) // valid ids cannot fail
			continue
		case o.kind == opChurn:
			_ = r.probe.Leave(isp.PeerID(o.peer.id)) // the peer joined the probe earlier
			continue
		case o.kind != opBid:
			continue
		}
		reqs := bidRequests(o.peer)
		t := time.Now()
		err := r.probe.Bid(isp.PeerID(o.peer.id), reqs)
		w.add("book_ms", ms(time.Since(t)))
		w.add("book_bids", float64(len(reqs)))
		if err != nil {
			r.errs = append(r.errs, fmt.Errorf("probe bid: %w", err))
		}
	}
	if _, err := r.probe.Tick(); err != nil {
		r.errs = append(r.errs, fmt.Errorf("probe tick: %w", err))
	}
}

// record folds one measured tick into the window.
func (r *daemonRun) record(w *window, loop time.Duration, out tickOutcome) {
	bids := 0.0
	var bidT, tickT time.Duration
	for _, o := range r.ops {
		switch o.kind {
		case opOffer:
			w.add("offers", 1)
			w.sample("offer_ms", ms(o.lat))
		case opBid:
			w.add("bid_posts", 1)
			bids += float64(len(o.peer.bids))
			bidT += o.lat
			w.sample("ingest_ms", ms(o.lat))
			if o.status == http.StatusTooManyRequests {
				w.add("shed", 1)
			}
		case opTick:
			tickT = o.lat
			w.roundMS = append(w.roundMS, ms(o.lat))
			w.sample("tick_solve_ms", out.resp.SolveMs)
			w.sample("tick_rest_ms", ms(o.lat)-out.resp.SolveMs)
		case opPoll:
			w.sample("grants_ms", ms(o.lat))
		}
	}
	w.loopSecs = append(w.loopSecs, loop.Seconds())
	w.requests = append(w.requests, bids)
	w.grants += float64(out.resp.Grants)
	w.welfare += out.resp.Welfare
	w.add("failed", float64(out.failed))
	w.add("calls", float64(len(r.ops)))
	w.add("rejected", float64(out.resp.Rejected))
	w.add("bid_ms", ms(bidT))
	w.add("tick_ms", ms(tickT))
	w.add("other_ms", ms(loop-bidT-tickT))
	w.add("solve_ms", out.resp.SolveMs)
	w.notePeak()
}

// check rebuilds the tick's instance from the calls the client made and
// holds the daemon's answer to it: the polled grants must pass
// Instance.Validate and add up to the welfare the tick reported, and the
// welfare must meet Theorem 2.
func (r *daemonRun) check(w *window, out tickOutcome) {
	what := fmt.Sprintf("tick %d", r.ticks-1)
	fail := func(err error) { r.errs = append(r.errs, fmt.Errorf("%s: %w", what, err)) }
	if out.failed > 0 {
		fail(fmt.Errorf("%d calls answered with an error status", out.failed))
	}
	var ups []sched.Uploader
	curUps := make(map[int64]bool)
	var reqs []sched.Request
	row := make(map[bidKey]int)
	for _, o := range r.ops {
		switch o.kind {
		case opOffer:
			ups = append(ups, sched.Uploader{Peer: isp.PeerID(o.peer.id), Capacity: o.peer.capacity})
			curUps[o.peer.id] = true
		case opBid:
			for _, b := range o.peer.bids {
				cands := make([]sched.Candidate, len(b.Candidates))
				for i, c := range b.Candidates {
					cands[i] = sched.Candidate{Peer: isp.PeerID(c.Peer), Cost: c.Cost}
				}
				row[bidKey{o.peer.id, b.Video, b.Chunk}] = len(reqs)
				reqs = append(reqs, sched.Request{
					Peer:       isp.PeerID(o.peer.id),
					Chunk:      video.ChunkID{Video: video.ID(b.Video), Index: video.ChunkIndex(b.Chunk)},
					Value:      b.Value,
					Deadline:   b.Deadline,
					Candidates: cands,
				})
			}
		}
	}
	in, err := sched.NewInstance(reqs, ups)
	if err != nil {
		fail(err)
		return
	}
	grants := make([]sched.Grant, 0, len(out.grants))
	prices := make(map[isp.PeerID]float64)
	for k, g := range out.grants {
		ri, ok := row[k]
		if !ok {
			fail(fmt.Errorf("grant for chunk %d/%d that peer %d did not bid for", k.video, k.chunk, k.peer))
			return
		}
		grants = append(grants, sched.Grant{Request: ri, Uploader: isp.PeerID(g.Uploader)})
		prices[isp.PeerID(g.Uploader)] = g.Price
	}
	if err := in.Validate(grants); err != nil {
		fail(err)
		return
	}
	welfare, err := in.Welfare(grants)
	if err != nil {
		fail(err)
		return
	}
	if out.resp.Requests != len(reqs) || out.resp.Grants != len(grants) || out.resp.Degraded ||
		math.Abs(out.resp.Welfare-welfare) > 1e-6*max(1, math.Abs(welfare)) {
		fail(fmt.Errorf("tick answer %+v disagrees with the polled grants (%d requests, %d grants, welfare %.6f)",
			out.resp, len(reqs), len(grants), welfare))
	}
	if len(grants) == 0 {
		fail(fmt.Errorf("granted nothing"))
	}
	eps := service.DefaultOptions().Epsilon
	if err := r.thm2.checkDual(what, in, prices, welfare, eps); err != nil {
		fail(err)
	}
	if (r.ticks-1)%exactEvery == 0 {
		if err := r.thm2.checkExact(what, in, welfare, eps); err != nil {
			fail(err)
		}
	}
	if (r.ticks-1)%scrapeEvery == 0 {
		m, err := scrape(r.h)
		if err != nil {
			fail(err)
		} else {
			w.add("carried_sampled", m["schedulerd_solver_carried_requests"])
			w.add("requests_sampled", float64(len(reqs)))
		}
	}
	// Rows the daemon's key-matching diff has to find: requests and
	// uploaders that arrived or left since the previous tick.
	if r.prevKeys != nil {
		changed := 0
		for k := range row {
			if !r.prevKeys[k] {
				changed++
			}
		}
		for k := range r.prevKeys {
			if _, ok := row[k]; !ok {
				changed++
			}
		}
		for id := range curUps {
			if !r.prevUps[id] {
				changed++
			}
		}
		for id := range r.prevUps {
			if !curUps[id] {
				changed++
			}
		}
		w.add("delta_rows", float64(changed))
		w.add("delta_rounds", 1)
	}
	r.prevKeys = make(map[bidKey]bool, len(row))
	for k := range row {
		r.prevKeys[k] = true
	}
	r.prevUps = curUps
}

// scrape reads the daemon's /metrics exposition into name → value (label
// sets are not used by the families the benchmark reads).
func scrape(h http.Handler) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, "/metrics", http.NoBody)
	if err != nil {
		return nil, err
	}
	rec := &recorder{hdr: http.Header{}}
	h.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&rec.body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// solverFamilies maps the daemon's cumulative solver counters to the
// Result.Stats names the sim workloads tally.
var solverFamilies = map[string]string{
	"schedulerd_solver_bids_total":               "bids",
	"schedulerd_solver_iterations_total":         "iterations",
	"schedulerd_solver_evictions_total":          "evictions",
	"schedulerd_solver_sweep_passes_total":       "sweep_passes",
	"schedulerd_solver_cold_restarts_total":      "cold_restarts",
	"schedulerd_solver_reserve_surrenders_total": "reserve_surrenders",
	"schedulerd_solver_delta_ops_total":          "delta_ops",
}

// setupDaemon starts a daemon, joins the population and warms it up.
func setupDaemon(seed uint64) (*daemonRun, error) {
	r, err := newDaemonRun(seed)
	if err != nil {
		return nil, err
	}
	if err := r.join(); err != nil {
		r.d.Close()
		return nil, err
	}
	for i := 0; i < daemonWarmupTicks; i++ {
		if err := r.tick(nil); err != nil {
			r.d.Close()
			return nil, err
		}
	}
	return r, nil
}

// measure runs closed-loop ticks into w for d.
func (r *daemonRun) measure(w *window, d time.Duration) error {
	before, err := scrape(r.h)
	if err != nil {
		return err
	}
	w.begin()
	deadline := time.Now().Add(d)
	for !windowDone(time.Now(), deadline, w) {
		if err := r.tick(w); err != nil {
			return err
		}
	}
	w.finish()
	after, err := scrape(r.h)
	if err != nil {
		return err
	}
	for fam, name := range solverFamilies {
		w.add(name, after[fam]-before[fam])
	}
	return nil
}

func runDaemon(opt options) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	var r *daemonRun
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		run, err := setupDaemon(opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			run.d.Close()
			continue
		}
		r = run
	}
	defer r.d.Close()
	o.set("setup_s", median(setups))
	o.note("setup s (daemon start + %d joins + %d warm-up ticks, %d times): %v",
		genPeers, daemonWarmupTicks, setupReps, setups)

	smp := newSampler()
	winA := newWindow(smp)
	if err := r.measure(winA, opt.duration); err != nil {
		return nil, err
	}
	var winB *window
	if opt.trace {
		probe, err := newDaemon()
		if err != nil {
			return nil, err
		}
		defer probe.Close()
		for _, p := range r.gen.peers {
			if err := probe.Join(isp.PeerID(p.id), isp.ID(p.isp)); err != nil {
				return nil, err
			}
		}
		r.probe = probe
		if err := obs.Install(obs.NewTrace("perfbench", 1<<12)); err != nil {
			return nil, err
		}
		winB = newWindow(smp)
		err = r.measure(winB, tracedWindow(opt.duration))
		obs.Uninstall()
		if err != nil {
			return nil, err
		}
	}
	for _, err := range r.errs {
		o.fail(err)
	}
	o.note("%v", &r.thm2)
	if err := reportDaemon(o, winA, winB); err != nil {
		return nil, err
	}
	return o, nil
}

// reportDaemon fills the daemon workload's metrics from the untraced
// window a and, in traced runs, the traced window b.
func reportDaemon(o *outcome, a, b *window) error {
	if err := a.report(o); err != nil {
		return err
	}
	ticks := float64(len(a.roundMS))
	bids := a.totalRequests()
	o.attempted = int64(a.counts["calls"])
	o.failed = int64(a.counts["failed"])
	ingest, err := summarize("bid ingest latency", a.series["ingest_ms"], 990)
	if err != nil {
		return err
	}
	o.note("bid ingest latency ms: %v", ingest)
	o.set("service.ingest_p50_ms", ingest.p50)
	o.set("service.ingest_p99_ms", ingest.pXX)
	o.set("service.offer_p50_ms", median(a.series["offer_ms"]))
	o.set("service.grants_p50_ms", median(a.series["grants_ms"]))
	o.set("service.tick_solve_ms_p50", median(a.series["tick_solve_ms"]))
	o.set("service.tick_rest_ms_p50", median(a.series["tick_rest_ms"]))
	o.set("service.bid_ms_per_tick", a.counts["bid_ms"]/ticks)
	o.set("service.tick_ms_per_tick", a.counts["tick_ms"]/ticks)
	o.set("service.other_ms_per_tick", a.counts["other_ms"]/ticks)
	o.set("service.rejected_share", a.counts["rejected"]/bids)
	o.set("service.shed_share", a.counts["shed"]/(a.counts["bid_posts"]+a.counts["offers"]))
	o.set("sched.call_ms_per_round", a.counts["solve_ms"]/ticks)
	o.set("sched.delta_rows_per_round", ratio(a.counts["delta_rows"], a.counts["delta_rounds"]))
	o.set("sched.identity_round_share", 0)
	o.set("sched.carried_share", ratio(a.counts["carried_sampled"], a.counts["requests_sampled"]))
	o.set("sched.delta_ops_per_request", a.counts["delta_ops"]/bids)
	reportCore(o, a)
	if b != nil {
		book := 1e3 * b.counts["book_ms"] / b.counts["book_bids"]
		o.set("service.book_us_per_bid", book)
		o.set("service.decode_us_per_bid", 1e3*a.counts["bid_ms"]/bids-book)
		o.set("obs.tracing_overhead_share", 1-b.throughput()/a.throughput())
	}
	o.zeroUnset("sim.", "cluster.", "cdn.", "economics.")
	return nil
}
