package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"waitfree"
	"waitfree/internal/explore"
	"waitfree/internal/fsx"
	"waitfree/internal/rescache"
	"waitfree/internal/server"
)

// service-mixed is an open loop against an in-process waitfreed server:
// one generator goroutine sends a POST /v1/jobs through the server's
// Handler() when each job is due, at a constant rate, and a goroutine per
// admitted job follows its SSE stream until the done event. Each job is
// timed from when it was due. No sockets are opened.

// shape is one kind of service request. Every shape explores in at most
// about 15 ms. Synthesis shapes are symmetric and depth 1: an asymmetric
// depth-2 search over cas runs for minutes under the default budget and
// would stall a worker.
type shape struct {
	Name   string
	Wire   server.WireRequest
	WantOK bool // naive refutes; the zoo classification is inconclusive (truncated witness search)
	// Repeat and Fresh are the shape's copies per round of the repeat and
	// the fresh sequence. Four in five jobs repeat an earlier request and
	// hit the cache, so the median job is a hit. These shares are an
	// assumption chosen for steady percentiles, not recorded traffic. Fresh requests, the
	// misses, come only from shapes that cost the server about 5 to 15 ms
	// (one per kind, and two consensus shapes), so the 90th percentile,
	// which lands in the middle of the misses, is one CPU-bound class of
	// job rather than the edge between cheap and costly ones. Two shapes
	// cost that much on every request, hit or miss: classification's key
	// canonicalizes the whole type zoo, and elim-faa's explores 4096
	// states before finding no canonical encoding (so it is never cached).
	// They get one copy in each sequence.
	Repeat, Fresh int
}

func consensusShape(name, protocol string, procs int, ex server.WireExplore, fresh int) shape {
	return shape{Name: name, WantOK: true, Repeat: 3, Fresh: fresh,
		Wire: server.WireRequest{Kind: "consensus", Protocol: protocol, Procs: procs, Explore: ex}}
}

func boundShape(protocol string, procs, fresh int) shape {
	return shape{Name: "bound-" + protocol, WantOK: true, Repeat: 3, Fresh: fresh,
		Wire: server.WireRequest{Kind: "bound", Protocol: protocol, Procs: procs, Explore: memo}}
}

func eliminationShape(protocol string, ex server.WireExplore, fresh int) shape {
	return shape{Name: "elim-" + protocol, WantOK: true, Repeat: 3, Fresh: fresh,
		Wire: server.WireRequest{Kind: "elimination", Protocol: protocol, Explore: ex}}
}

func synthesisShape(objects string, fresh int) shape {
	return shape{Name: "synth-" + objects, WantOK: true, Repeat: 3, Fresh: fresh,
		Wire: server.WireRequest{Kind: "synthesis", Objects: objects, Synthesis: &server.WireSynthesis{Depth: 1, Symmetric: true}}}
}

var (
	memo     = server.WireExplore{Memoize: true}
	memoC1   = server.WireExplore{Memoize: true, Faults: &server.WireFaults{MaxCrashes: 1}}
	memoCR22 = server.WireExplore{Memoize: true, Faults: &server.WireFaults{MaxCrashes: 2, Mode: "crash-recovery", MaxRecoveries: 2}}
)

// shapes is service-mixed's request mix, covering all five kinds.
var shapes = []shape{
	consensusShape("tas-cr2", "tas", 0, memoCR22, 0),
	{Name: "naive", WantOK: false, Repeat: 3, Wire: server.WireRequest{Kind: "consensus", Protocol: "naive", Explore: memo}},
	consensusShape("weakleader", "weakleader", 0, memo, 0),
	consensusShape("noisysticky-c1", "noisysticky", 0, memoC1, 0),
	consensusShape("sticky4", "sticky", 4, memo, 0),
	consensusShape("sticky5", "sticky", 5, memo, 3),
	consensusShape("augqueue3-c1", "augqueue", 3, memoC1, 0),
	consensusShape("augqueue4-c1", "augqueue", 4, memoC1, 3),
	consensusShape("cas4-nomemo", "cas", 4, server.WireExplore{}, 0),
	consensusShape("fetchcons3", "fetchcons", 3, memo, 0),
	consensusShape("queue-c1", "queue", 0, memoC1, 0),
	boundShape("tas", 0, 0),
	boundShape("cas", 3, 0),
	boundShape("casregister3", 0, 0),
	boundShape("sticky", 5, 3),
	eliminationShape("tas", memo, 0),
	eliminationShape("queue", server.WireExplore{}, 0),
	eliminationShape("stack", server.WireExplore{}, 0),
	eliminationShape("swap", server.WireExplore{}, 0),
	eliminationShape("noisysticky-r", server.WireExplore{}, 3),
	{Name: "elim-faa", WantOK: true, Repeat: 1, Fresh: 1, Wire: server.WireRequest{Kind: "elimination", Protocol: "faa"}},
	{Name: "classification", WantOK: false, Repeat: 1, Fresh: 1, Wire: server.WireRequest{Kind: "classification"}},
	synthesisShape("tas", 0),
	synthesisShape("tas+bits", 0),
	synthesisShape("cas", 3),
	synthesisShape("sticky", 0),
	synthesisShape("register", 0),
	synthesisShape("onebits", 0),
}

const (
	// serviceRate is the offered load in jobs per second, a constant of
	// the workload. It keeps the worker pool well short of saturation
	// (README.md gives the measured busy share and why it is lower than
	// the two-thirds first aimed for).
	serviceRate = 100
	// knobShare of repeats change a knob that never changes the verdict
	// (parallelism or symmetry).
	knobShare = 0.5
	// repeatGap keeps repeats away from the last submissions, so the
	// request they repeat has finished and its report is stored.
	repeatGap = 64
	// freshDepth is the depth bound of fresh requests: far above any
	// shape's real depth, and offset per request so each has a cache key
	// of its own.
	freshDepth = 1000
	// cacheMemory is the result cache's memory budget in bytes, smaller
	// than the distinct reports a run stores, so some hits come from disk.
	cacheMemory = 64 << 10
	// lateSetupRuns is how many more times an untraced service-mixed run
	// sets up after its open loop, one set-up after each share of the
	// oracle's checks. A set-up takes about a tenth of a second, so a
	// busy second on a shared machine slows every set-up made in it;
	// spread over the oracle's seconds of work, the median is not left
	// to one such second.
	lateSetupRuns = 20
	// drainWait bounds the wait for jobs still running when sending stops.
	drainWait = 60 * time.Second
)

// submission is one generated request.
type submission struct {
	shape int
	body  []byte
}

// wireBody marshals w with the API version set.
func wireBody(w server.WireRequest) []byte {
	w.API = server.APIVersion
	data, err := json.Marshal(w)
	if err != nil {
		panic(fmt.Sprintf("marshal wire request: %v", err)) // plain data: cannot fail
	}
	return data
}

// warmBodies are the requests the untimed warm-up sends: every shape's
// base form, then the base form with each verdict-neutral knob changed
// (cache hits).
func warmBodies() []submission {
	var out []submission
	for _, knob := range []func(*server.WireExplore){
		func(*server.WireExplore) {},
		func(e *server.WireExplore) { e.Parallelism = 1 },
		func(e *server.WireExplore) { e.Symmetry = "off" },
	} {
		for i, s := range shapes {
			w := s.Wire
			knob(&w.Explore)
			out = append(out, submission{shape: i, body: wireBody(w)})
		}
	}
	return out
}

// genTraffic returns n submissions generated from seed. Each block of
// five holds exactly four repeats and one fresh request, and both kinds
// walk the shapes in seeded rounds, so every seed sends the same mix and
// only the order differs. A fresh request is a shape with its own depth
// bound; a repeat copies an earlier request of its shape (the warm-up's
// included), sometimes with a knob changed.
func genTraffic(seed int64, n int) []submission {
	rng := rand.New(rand.NewSource(seed))
	rw, fw := make([]int, len(shapes)), make([]int, len(shapes))
	for i, s := range shapes {
		rw[i], fw[i] = s.Repeat, s.Fresh
	}
	freshSeq, repeatSeq := newSequence(fw, seed^0x5eed1), newSequence(rw, seed^0x5eed2)
	type past struct {
		at   int // submission index; -1 for the warm-up
		wire server.WireRequest
	}
	byShape := make([][]past, len(shapes))
	for i, s := range shapes {
		byShape[i] = []past{{-1, s.Wire}}
	}
	block := []bool{true, true, true, true, false} // repeat or fresh
	out := make([]submission, 0, n)
	fresh := 0
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		var sh int
		var w server.WireRequest
		if block[i%len(block)] {
			sh = repeatSeq.next()
			eligible := 0
			for eligible < len(byShape[sh]) && (byShape[sh][eligible].at < 0 || byShape[sh][eligible].at <= i-repeatGap) {
				eligible++
			}
			w = byShape[sh][rng.Intn(eligible)].wire
			if rng.Float64() < knobShare {
				switch {
				case rng.Intn(2) == 0:
					w.Explore.Parallelism = 1 + w.Explore.Parallelism%2
				case w.Explore.Symmetry == "off":
					w.Explore.Symmetry = ""
				default:
					w.Explore.Symmetry = "off"
				}
			}
		} else {
			fresh++
			sh = freshSeq.next()
			w = shapes[sh].Wire
			w.Explore.MaxDepth = freshDepth + fresh
		}
		byShape[sh] = append(byShape[sh], past{i, w})
		out = append(out, submission{shape: sh, body: wireBody(w)})
	}
	return out
}

// serviceEnv is one started server.
type serviceEnv struct {
	cache   *rescache.Cache
	srv     *server.Server
	h       http.Handler
	jobFS   *fsx.FaultFS // traced only
	cacheFS *fsx.FaultFS // traced only
	warm    []*jobRec
	base    server.StatsView
	baseJob map[fsx.Op]int
	baseRes map[fsx.Op]int
}

// setupService opens the cache, starts the server, and warms the cache
// with every shape's base request. The job store and the cache's disk
// tier live on a fresh memFS; a traced run wraps each in a rule-less
// FaultFS to count its operations.
func setupService(o options, traced bool) (*serviceEnv, error) {
	e := &serviceEnv{}
	var jobFS, cacheFS fsx.FS = newMemFS(), newMemFS()
	if traced {
		e.jobFS, e.cacheFS = fsx.NewFaultFS(jobFS, o.seed), fsx.NewFaultFS(cacheFS, o.seed)
		jobFS, cacheFS = e.jobFS, e.cacheFS
	}
	var err error
	if e.cache, err = rescache.Open(rescache.Options{Dir: "/cache", MemoryBudget: cacheMemory, FS: cacheFS}); err != nil {
		return nil, err
	}
	if e.srv, err = server.New(server.Options{DataDir: "/jobs", Cache: e.cache, FS: jobFS}); err != nil {
		return nil, err
	}
	e.srv.Start()
	e.h = e.srv.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	// Submit the whole warm-up before following any of it, so the set-up
	// time is the pool's work and not a chain of idle wake-ups.
	for _, sub := range warmBodies() {
		rec := &jobRec{sub: sub, due: time.Now()}
		e.send(ctx, rec)
		e.warm = append(e.warm, rec)
	}
	for _, rec := range e.warm {
		e.follow(ctx, rec, nil, 0)
	}
	if e.base, err = e.stats(); err != nil {
		e.teardown()
		return nil, err
	}
	if traced {
		e.baseJob, e.baseRes = e.jobFS.Counts(), e.cacheFS.Counts()
	}
	return e, nil
}

// teardown stops the workers. A drain past its deadline leaves only
// memory behind.
func (e *serviceEnv) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	_ = e.srv.Drain(ctx)
}

// stats reads GET /v1/stats.
func (e *serviceEnv) stats() (server.StatsView, error) {
	var v server.StatsView
	w := httptest.NewRecorder()
	e.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if w.Code != http.StatusOK {
		return v, fmt.Errorf("GET /v1/stats: status %d", w.Code)
	}
	return v, json.Unmarshal(w.Body.Bytes(), &v)
}

// jobRec is one job's timeline and outcome.
type jobRec struct {
	sub      submission
	due      time.Time
	sent     time.Time // POST handler entered
	admitted time.Time // POST handler returned
	streamed time.Time // SSE handler entered
	doneAt   time.Time // SSE handler returned with the done event
	status   int       // POST status
	code     string    // error code of a refused or failed job
	view     *server.JobView
	sum      [sha256.Size]byte // of the served report
	report   []byte            // served report, kept on traced runs
	err      error
}

// send POSTs the job. It runs on the generator goroutine.
func (e *serviceEnv) send(ctx context.Context, rec *jobRec) {
	rec.sent = time.Now()
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(rec.sub.body)).WithContext(ctx)
	e.h.ServeHTTP(w, req)
	rec.admitted = time.Now()
	rec.status = w.Code
	if w.Code != http.StatusAccepted {
		var body struct {
			Error server.WireError `json:"error"`
		}
		_ = json.Unmarshal(w.Body.Bytes(), &body) // an unreadable body leaves the code empty
		rec.code = body.Error.Code
		rec.err = fmt.Errorf("POST /v1/jobs: status %d (%s)", w.Code, rec.code)
		return
	}
	var v server.JobView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || v.ID == "" {
		rec.err = fmt.Errorf("POST /v1/jobs: unreadable job view: %v", err)
		return
	}
	rec.view = &v
}

// follow reads the job's SSE stream until the done event.
func (e *serviceEnv) follow(ctx context.Context, rec *jobRec, tr *tracer, req int64) {
	if rec.err != nil {
		return
	}
	rec.streamed = time.Now()
	w := httptest.NewRecorder()
	e.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+rec.view.ID+"/events", nil).WithContext(ctx))
	rec.doneAt = time.Now()
	data, ok := doneEvent(w.Body.Bytes())
	if !ok {
		rec.err = errors.New("SSE stream ended without a done event")
		return
	}
	var v server.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		rec.err = fmt.Errorf("done event: %w", err)
		return
	}
	rec.view = &v
	if v.State != server.JobDone {
		if v.Error != nil {
			rec.code = v.Error.Code
		}
		rec.err = fmt.Errorf("job %s ended %s", v.ID, v.State)
		return
	}
	rec.sum = sha256.Sum256(v.Report)
	// Keep only the digest (and, on a traced run, the bytes), so the
	// benchmark's own records add little to peak_rss_mb.
	report := v.Report
	v.Report = nil
	if tr != nil {
		rec.report = report
		root := tr.record(0, req, "job", "loadgen", rec.due, rec.doneAt)
		tr.record(root, req, "POST /v1/jobs", "server", rec.sent, rec.admitted)
		tr.record(root, req, "GET /v1/jobs/{id}/events", "server", rec.streamed, rec.doneAt)
	}
}

// doneEvent returns the data of the stream's done event.
func doneEvent(stream []byte) ([]byte, bool) {
	const marker = "event: done\ndata: "
	i := bytes.LastIndex(stream, []byte(marker))
	if i < 0 {
		return nil, false
	}
	rest := stream[i+len(marker):]
	end := bytes.IndexByte(rest, '\n')
	if end < 0 {
		return nil, false
	}
	return rest[:end], true
}

// openLoop sends subs at serviceRate from now and waits for every job.
// It returns the records and how many jobs were unfinished when sending
// stopped.
func (e *serviceEnv) openLoop(subs []submission, tr *tracer) ([]*jobRec, int) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recs := make([]*jobRec, len(subs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, finished := 0, 0
	interval := time.Second / serviceRate
	start := time.Now().Add(interval)
	for i, sub := range subs {
		rec := &jobRec{sub: sub, due: start.Add(time.Duration(i) * interval)}
		recs[i] = rec
		waitUntil(rec.due)
		e.send(ctx, rec)
		if rec.err != nil {
			continue
		}
		admitted++
		wg.Add(1)
		go func(rec *jobRec, req int64) {
			defer wg.Done()
			e.follow(ctx, rec, tr, req)
			mu.Lock()
			finished++
			mu.Unlock()
		}(rec, int64(i+1))
	}
	mu.Lock()
	backlog := admitted - finished
	mu.Unlock()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainWait):
		cancel() // unfinished streams return without a done event: failed
		<-done
	}
	return recs, backlog
}

// waitUntil returns at t. The runtime's timers can wake a sleeper up to
// a millisecond late, which is as long as a cache hit takes from due to
// done, so the last millisecond is spent yielding instead of sleeping.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// oracle runs each distinct request in process, uncached, and records
// the digest of its canonical report: the bytes the server must serve.
type oracle struct {
	sums   map[string][sha256.Size]byte
	totals exploreTotals
}

func newOracle() *oracle { return &oracle{sums: make(map[string][sha256.Size]byte)} }

// run computes the digest of every body not yet known.
func (or *oracle) run(bodies [][]byte) error {
	var todo [][]byte
	for _, b := range bodies {
		if _, ok := or.sums[string(b)]; !ok {
			todo = append(todo, b)
		}
	}
	var mu sync.Mutex
	var firstErr error
	work := make(chan []byte)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range work {
				sum, st, err := canonicalDigest(body)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				or.sums[string(body)] = sum
				if st != nil {
					or.totals.add(st)
				}
				mu.Unlock()
			}
		}()
	}
	for _, b := range todo {
		work <- b
	}
	close(work)
	wg.Wait()
	return firstErr
}

// canonicalDigest compiles body, runs it uncached in process, and returns
// the SHA-256 of its canonical report and its engine stats, if any.
func canonicalDigest(body []byte) ([sha256.Size]byte, *waitfree.ExploreStats, error) {
	_, req, err := server.DecodeWire(body)
	if err != nil {
		return [sha256.Size]byte{}, nil, err
	}
	rep, err := waitfree.Check(context.Background(), req)
	if err != nil {
		return [sha256.Size]byte{}, nil, fmt.Errorf("in-process check of %s: %w", body, err)
	}
	var st *waitfree.ExploreStats
	if rep.Consensus != nil {
		st = rep.Consensus.Stats
	}
	rep.Canonicalize()
	data, err := json.Marshal(rep)
	if err != nil {
		return [sha256.Size]byte{}, nil, err
	}
	return sha256.Sum256(data), st, nil
}

// distinctBodies returns the distinct request bodies of the admitted
// jobs among recs, in first-seen order.
func distinctBodies(recs []*jobRec) [][]byte {
	var bodies [][]byte
	seen := map[string]bool{}
	for _, r := range recs {
		if r.err == nil && !seen[string(r.sub.body)] {
			seen[string(r.sub.body)] = true
			bodies = append(bodies, r.sub.body)
		}
	}
	return bodies
}

// verifyJobs checks every completed job against the oracle and its
// shape's expected verdict, marking wrong ones failed. The oracle runs
// the distinct bodies on one goroutine per CPU.
func verifyJobs(recs []*jobRec, or *oracle) error {
	if err := or.run(distinctBodies(recs)); err != nil {
		return err
	}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		sh := shapes[r.sub.shape]
		switch {
		case r.sum != or.sums[string(r.sub.body)]:
			r.err = fmt.Errorf("served report for %s differs from the in-process check", r.sub.body)
		case r.view.OK == nil || *r.view.OK != sh.WantOK:
			r.err = fmt.Errorf("%s: ok=%v, want %v", sh.Name, r.view.OK, sh.WantOK)
		}
	}
	return nil
}

// tracedJobs is the job count of a traced phase: fixed for given
// seconds, so the traced request sequence repeats exactly for a seed.
func tracedJobs(seconds float64) int { return int(serviceRate * seconds / 2) }

// runService runs service-mixed.
func runService(o options) (*result, error) {
	n := int(serviceRate * o.seconds)
	if o.trace {
		n /= 2
	}
	traffic := genTraffic(o.seed, n)
	// Every set-up's warm-up jobs are checked with the timed ones.
	var warm []*jobRec
	setup := func() (*serviceEnv, error) { return setupService(o, false) }
	keepWarm := func(e *serviceEnv) { warm = append(warm, e.warm...) }
	teardown := func(e *serviceEnv) { e.teardown() }
	env, setupSecs, err := timedSetups(setupRuns, setup, keepWarm, teardown)
	if err != nil {
		return nil, err
	}
	m := newMetricSet()
	res := &result{metrics: m}
	recs, _ := env.openLoop(traffic, nil)
	env.teardown()
	// Read the peak before the oracle runs its uncached checks, so the
	// figure is the server's and not the benchmark's verification.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	or := newOracle()
	if !o.trace {
		bodies := distinctBodies(append(append([]*jobRec(nil), warm...), recs...))
		for i := 0; i < lateSetupRuns; i++ {
			if err := or.run(bodies[i*len(bodies)/lateSetupRuns : (i+1)*len(bodies)/lateSetupRuns]); err != nil {
				return nil, err
			}
			late, secs, err := timedSetups(1, setup, keepWarm, teardown)
			if err != nil {
				return nil, err
			}
			late.teardown()
			setupSecs = append(setupSecs, secs...)
		}
	}
	all := append(warm, recs...)
	if err := verifyJobs(all, or); err != nil {
		return nil, err
	}
	res.attempted, res.failed = tally(all, m)
	lat := latencies(recs)

	if !o.trace {
		setSetup(m, setupSecs)
		m.set("throughput_per_s", completedRate(recs))
		m.setPct("latency_ms_p50", lat, 0.5, 1)
		m.set("peak_rss_mb", rss)
	} else {
		m.setPct("loadgen.latency_ms_p90", lat, 0.90, 1)
		untracedP50, perr := percentile(lat, 0.5)
		tenv, err := setupService(o, true)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		trecs, backlog := tenv.openLoop(genTraffic(o.seed, tracedJobs(o.seconds)), tr)
		st, serr := tenv.stats()
		jobC, resC := tenv.jobFS.Counts(), tenv.cacheFS.Counts()
		tenv.teardown()
		if serr != nil {
			return nil, serr
		}
		tor := newOracle()
		if err := verifyJobs(trecs, tor); err != nil {
			return nil, err
		}
		ta, tf := tally(trecs, m)
		res.attempted += ta
		res.failed += tf
		setServerLayer(m, trecs, st)
		setCacheLayer(m, tenv, st, jobC, resC, trecs)
		if err := probeLayers(m, trecs, tr); err != nil {
			return nil, err
		}
		setExplore(m, tor.totals)
		m.set("loadgen.backlog_end", float64(backlog))
		if tracedP50, terr := percentile(latencies(trecs), 0.5); perr == nil && terr == nil {
			m.set("trace.overhead_frac", (tracedP50-untracedP50)/untracedP50)
		}
		m.set("failed_frac", ratio(float64(res.failed), float64(res.attempted)))
		addSelfTimes(m, tr)
		if err := tr.writeJSONL(spanFile(o)); err != nil {
			return nil, err
		}
	}
	res.correct = res.failed == 0
	return res, nil
}

// tally counts attempted and failed jobs, noting the first failure.
func tally(recs []*jobRec, m *metricSet) (attempted, failed int) {
	for _, r := range recs {
		attempted++
		if r.err != nil {
			if failed == 0 {
				m.note("first failed job: %v", r.err)
			}
			failed++
		}
	}
	return attempted, failed
}

// latencies returns each job's due-to-done time in ms, +Inf for failed
// jobs.
func latencies(recs []*jobRec) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		if r.err != nil {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = r.doneAt.Sub(r.due).Seconds() * 1e3
	}
	return out
}

// completedRate is completed jobs per second, from the first due time to
// the last done event.
func completedRate(recs []*jobRec) float64 {
	if len(recs) == 0 {
		return math.NaN()
	}
	var last time.Time
	done := 0
	for _, r := range recs {
		if r.err == nil {
			done++
			if r.doneAt.After(last) {
				last = r.doneAt
			}
		}
	}
	return ratio(float64(done), last.Sub(recs[0].due).Seconds())
}

// setServerLayer derives the server's per-layer figures from the job
// timelines and views.
func setServerLayer(m *metricSet, recs []*jobRec, st server.StatsView) {
	var admit, wait, run, deliver, lag []float64
	perKind := map[string][]float64{}
	refused := map[string]int{}
	var busy time.Duration
	var first, last time.Time
	for _, r := range recs {
		lag = append(lag, r.sent.Sub(r.due).Seconds()*1e3)
		if r.status == http.StatusServiceUnavailable {
			refused[r.code]++
		}
		if r.status == http.StatusAccepted {
			admit = append(admit, r.admitted.Sub(r.sent).Seconds()*1e3)
		}
		if r.err != nil || r.view.Started == nil || r.view.Finished == nil {
			continue
		}
		v := r.view
		wait = append(wait, v.Started.Sub(v.Created).Seconds()*1e3)
		d := v.Finished.Sub(*v.Started)
		run = append(run, d.Seconds()*1e3)
		perKind[v.Kind] = append(perKind[v.Kind], d.Seconds()*1e3)
		deliver = append(deliver, r.doneAt.Sub(*v.Finished).Seconds()*1e3)
		busy += d
		if first.IsZero() || v.Started.Before(first) {
			first = *v.Started
		}
		if v.Finished.After(last) {
			last = *v.Finished
		}
	}
	m.setPct("server.admit_ms_p50", admit, 0.5, 1)
	m.setPct("server.admit_ms_p99", admit, 0.99, 1)
	m.setPct("server.queue_wait_ms_p50", wait, 0.5, 1)
	m.setPct("server.queue_wait_ms_p99", wait, 0.99, 1)
	m.setPct("server.run_ms_p50", run, 0.5, 1)
	m.setPct("server.run_ms_p99", run, 0.99, 1)
	for _, k := range []string{"consensus", "bound", "elimination", "classification", "synthesis"} {
		m.setPct("server.run_ms_p50."+k, perKind[k], 0.5, 1)
	}
	m.setPct("server.deliver_ms_p50", deliver, 0.5, 1)
	total := 0
	for _, code := range []string{server.CodeQueueFull, server.CodeStorageDegraded, server.CodeDraining} {
		m.set("server.refused."+code, float64(refused[code]))
	}
	for _, c := range refused {
		total += c
	}
	m.set("server.refused", float64(total))
	m.set("server.pool_busy_frac", ratio(busy.Seconds(), float64(st.Workers)*last.Sub(first).Seconds()))
	m.setPct("loadgen.lag_ms_p99", lag, 0.99, 1)
	m.setPct("loadgen.job_ms_p99", latencies(recs), 0.99, 1)
}

// setCacheLayer derives the result cache's and the storage tiers'
// figures from /v1/stats and the traced filesystems' op counts, net of
// the warm-up.
func setCacheLayer(m *metricSet, e *serviceEnv, st server.StatsView, jobC, resC map[fsx.Op]int, recs []*jobRec) {
	if st.Cache == nil || e.base.Cache == nil {
		m.note("server reported no cache stats")
		return
	}
	c, b := st.Cache, e.base.Cache
	hits, misses := float64(c.Hits-b.Hits), float64(c.Misses-b.Misses)
	m.set("rescache.hit_ratio", ratio(hits, hits+misses))
	m.set("rescache.disk_hit_share", ratio(float64(c.DiskHits-b.DiskHits), hits))
	m.set("rescache.evictions", float64(c.Evictions-b.Evictions))
	m.set("rescache.errors", float64(c.Errors-b.Errors))
	admitted := 0.0
	for _, r := range recs {
		if r.status == http.StatusAccepted {
			admitted++
		}
	}
	delta := func(now, base map[fsx.Op]int, ops ...fsx.Op) float64 {
		n := 0
		for _, op := range ops {
			n += now[op] - base[op]
		}
		return float64(n)
	}
	m.set("fsx.jobstore.syncs_per_job", ratio(delta(jobC, e.baseJob, fsx.OpSync, fsx.OpSyncDir), admitted))
	m.set("fsx.jobstore.writes_per_job", ratio(delta(jobC, e.baseJob, fsx.OpWrite, fsx.OpWriteAt), admitted))
	m.set("fsx.jobstore.renames_per_job", ratio(delta(jobC, e.baseJob, fsx.OpRename), admitted))
	m.set("fsx.rescache.syncs_per_store", ratio(delta(resC, e.baseRes, fsx.OpSync, fsx.OpSyncDir), float64(c.Stores-b.Stores)))
	m.set("fsx.rescache.reads_per_get", ratio(delta(resC, e.baseRes, fsx.OpReadFile), hits+misses))
}

// probeLayers times the benchmark's own calls into the wire decoder, the
// cache key, the canonical encoding, the cache tiers, and the report
// decoder, over the traced run's requests and served reports. It runs
// after the open loop, so it never competes with it.
func probeLayers(m *metricSet, recs []*jobRec, tr *tracer) error {
	// Entries larger than a cache's memory budget live on disk only, so a
	// one-byte budget makes every Get a disk-tier read (from a memFS, like
	// the server's).
	disk, err := rescache.Open(rescache.Options{Dir: "/probe", MemoryBudget: 1, FS: newMemFS()})
	if err != nil {
		return err
	}
	mem, err := rescache.Open(rescache.Options{})
	if err != nil {
		return err
	}
	var decode, key, canon, getMem, getDisk, put, decRep []float64
	decErrs := 0
	timed := func(parent int, req int64, name, layer string, into *[]float64, f func() error) error {
		id := tr.begin(parent, req, name, layer)
		start := time.Now()
		err := f()
		*into = append(*into, time.Since(start).Seconds()*1e6)
		tr.end(id)
		return err
	}
	seen := map[string]bool{}
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		req := int64(len(recs) + i + 1)
		root := tr.begin(0, req, "probe", "loadgen")
		var wr waitfree.Request
		if err := timed(root, req, "server.DecodeWire", "server", &decode, func() (err error) {
			_, wr, err = server.DecodeWire(r.sub.body)
			return err
		}); err != nil {
			return err
		}
		spec := rescache.KeySpec{Kind: string(wr.Kind), Values: wr.Values, MaxK: wr.MaxK, Implementation: wr.Implementation,
			Substrate: wr.Substrate, Objects: wr.Objects, Synthesis: wr.Synthesis, Explore: wr.Explore}
		// A request without a bounded canonical encoding has no key: the
		// server bypasses the cache for it, and so do the probes.
		var k rescache.Key
		keyErr := timed(root, req, "rescache.RequestKey", "rescache", &key, func() (err error) {
			k, err = rescache.RequestKey(spec)
			return err
		})
		if wr.Implementation != nil {
			vals := max(wr.Values, 2)
			starts := make([]waitfree.Invocation, vals)
			for v := range starts {
				starts[v] = waitfree.Propose(v)
			}
			_ = timed(root, req, "explore.CanonicalImplementation", "explore", &canon, func() error {
				_, err := explore.CanonicalImplementation(wr.Implementation, starts)
				return err
			})
		}
		// Every cache hit pays DecodeReport; a report it rejects is served
		// by re-running the check instead, so count those.
		if err := timed(root, req, "waitfree.DecodeReport", "waitfree", &decRep, func() error {
			_, err := waitfree.DecodeReport(r.report)
			return err
		}); err != nil {
			if decErrs == 0 {
				m.note("DecodeReport rejects a served report (%s): %v", shapes[r.sub.shape].Name, err)
			}
			decErrs++
		}
		if keyErr != nil {
			tr.end(root)
			continue
		}
		if !seen[string(k[:])] {
			seen[string(k[:])] = true
			if err := timed(root, req, "rescache.Put", "rescache", &put, func() error { return disk.Put(k, r.report) }); err != nil {
				return err
			}
			mem.Put(k, r.report)
		}
		for _, c := range []struct {
			cache *rescache.Cache
			into  *[]float64
		}{{mem, &getMem}, {disk, &getDisk}} {
			if err := timed(root, req, "rescache.Get", "rescache", c.into, func() error {
				if data, ok := c.cache.Get(k); !ok || !bytes.Equal(data, r.report) {
					return fmt.Errorf("probe cache lost the report for %s", r.sub.body)
				}
				return nil
			}); err != nil {
				return err
			}
		}
		tr.end(root)
	}
	m.setPct("server.decode_us_p50", decode, 0.5, 1)
	m.setPct("rescache.key_us_p50", key, 0.5, 1)
	m.setPct("rescache.key_us_p99", key, 0.99, 1)
	m.setPct("explore.canon_us_p50", canon, 0.5, 1)
	m.setPct("rescache.get_mem_us_p50", getMem, 0.5, 1)
	m.setPct("rescache.get_disk_us_p50", getDisk, 0.5, 1)
	m.setPct("rescache.put_us_p50", put, 0.5, 1)
	m.setPct("waitfree.decode_report_us_p50", decRep, 0.5, 1)
	m.set("waitfree.decode_report_errors", float64(decErrs))
	return nil
}
