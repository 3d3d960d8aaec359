package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"waitfree"
	"waitfree/internal/durable"
	"waitfree/internal/explore"
)

// The verify workloads are closed loops with one client: it calls
// waitfree.Check in process, with no result cache and engine parallelism
// equal to the CPU count, and sends its next request when the previous
// one returns. The requests are a seeded sequence of rounds; each round
// is the workload's fixed multiset of pool members in a seeded order, so
// every seed sends the same mix and only the order differs.

// instance is one member of the verify pool.
type instance struct {
	Name     string
	Kind     waitfree.CheckKind
	Protocol string // registry name, or multiValued
	Procs    int
	Values   int // proposal values (0 = binary)
	Memoize  bool
	Symmetry waitfree.SymmetryMode
	Faults   waitfree.FaultModel
	// Batch and Spill are the member's copies per round of verify-batch
	// and verify-spill (0 = not in that workload).
	Batch, Spill int
}

// multiValued names the k-valued consensus implementation built from
// binary consensus objects (waitfree.MultiValuedConsensus).
const multiValued = "multivalued"

var (
	oneCrash      = waitfree.FaultModel{MaxCrashes: 1}
	crashRecovery = waitfree.FaultModel{MaxCrashes: 3, Mode: waitfree.CrashRecovery, MaxRecoveries: 3}
)

// pool is the verify workloads' instance pool. Round weights are chosen so
// that, sorted by check time, the median falls inside one block of
// identical members and the 90th percentile inside another: the
// percentiles then move with the checker's speed, not with where a run
// happens to stop. verify-batch (20 checks a round): 8 members below
// augqueue5-c1-auto, its 4 copies around the median, 5 members above it
// (sticky6-off the slowest), then augqueue5-c1-off's 3 copies, the
// slowest checks, around the 90th percentile. verify-spill (10 a round)
// keeps only memoized members that evict under spillBudget and that stay
// small without symmetry reduction (a memo budget turns it off):
// sticky5-off's 3 copies hold its median, and the 4 copies of cas7-off
// and bound-cas7-off, which cost the same, its 90th percentile.
var pool = []instance{
	{Name: "tas-cr3", Kind: waitfree.KindConsensus, Protocol: "tas", Memoize: true, Symmetry: waitfree.SymmetryAuto, Faults: crashRecovery, Batch: 1, Spill: 1},
	{Name: "casregister3-c1", Kind: waitfree.KindConsensus, Protocol: "casregister3", Memoize: true, Symmetry: waitfree.SymmetryAuto, Faults: oneCrash, Batch: 1, Spill: 1},
	{Name: "augqueue3-c1-nomemo", Kind: waitfree.KindConsensus, Protocol: "augqueue", Procs: 3, Symmetry: waitfree.SymmetryOff, Faults: oneCrash, Batch: 1},
	{Name: "multivalued3-k3", Kind: waitfree.KindConsensus, Protocol: multiValued, Procs: 3, Values: 3, Memoize: true, Symmetry: waitfree.SymmetryAuto, Batch: 1, Spill: 1},
	{Name: "cas8-auto", Kind: waitfree.KindConsensus, Protocol: "cas", Procs: 8, Memoize: true, Symmetry: waitfree.SymmetryAuto, Batch: 1},
	{Name: "bound-sticky6-auto", Kind: waitfree.KindBound, Protocol: "sticky", Procs: 6, Memoize: true, Symmetry: waitfree.SymmetryAuto, Batch: 1},
	{Name: "sticky5-off", Kind: waitfree.KindConsensus, Protocol: "sticky", Procs: 5, Memoize: true, Symmetry: waitfree.SymmetryOff, Batch: 1, Spill: 3},
	{Name: "augqueue5-c1-auto", Kind: waitfree.KindConsensus, Protocol: "augqueue", Procs: 5, Memoize: true, Symmetry: waitfree.SymmetryAuto, Faults: oneCrash, Batch: 4},
	{Name: "sticky6-auto", Kind: waitfree.KindConsensus, Protocol: "sticky", Procs: 6, Memoize: true, Symmetry: waitfree.SymmetryAuto, Batch: 1},
	{Name: "cas7-off", Kind: waitfree.KindConsensus, Protocol: "cas", Procs: 7, Memoize: true, Symmetry: waitfree.SymmetryOff, Batch: 1, Spill: 3},
	{Name: "bound-cas7-off", Kind: waitfree.KindBound, Protocol: "cas", Procs: 7, Memoize: true, Symmetry: waitfree.SymmetryOff, Batch: 1, Spill: 1},
	{Name: "sticky7-auto", Kind: waitfree.KindConsensus, Protocol: "sticky", Procs: 7, Memoize: true, Symmetry: waitfree.SymmetryAuto, Batch: 1},
	{Name: "sticky4-nomemo", Kind: waitfree.KindConsensus, Protocol: "sticky", Procs: 4, Symmetry: waitfree.SymmetryOff, Batch: 1},
	{Name: "augqueue5-c1-off", Kind: waitfree.KindConsensus, Protocol: "augqueue", Procs: 5, Memoize: true, Symmetry: waitfree.SymmetryOff, Faults: oneCrash, Batch: 3},
	{Name: "sticky6-off", Kind: waitfree.KindConsensus, Protocol: "sticky", Procs: 6, Memoize: true, Symmetry: waitfree.SymmetryOff, Batch: 1},
}

const (
	// spillBudget is verify-spill's MemoBudget: memo entries kept per
	// tree, well below the per-tree memo of every spill member.
	spillBudget = 128
	// cpDir holds verify-spill's checkpoints on a memFS, for the reason
	// service-mixed's job store is on one: fsync latency on a shared disk.
	// The spill files stay on the real disk: on a memFS they would stay on
	// the Go heap, which is what spilling exists to avoid.
	cpDir = "/checkpoints"
	// checkpointEvery is verify-spill's autosave interval: short, so each
	// check writes several checkpoints and the traced run collects enough
	// saves for a 99th percentile.
	checkpointEvery = 5 * time.Millisecond
	// maxRunSeconds caps a closed loop that has not yet collected enough
	// samples for its tail percentile.
	maxRunSeconds = 120
)

// weights returns the workload's copies per round, indexed like pool.
func weights(spill bool) []int {
	w := make([]int, len(pool))
	for i, in := range pool {
		if spill {
			w[i] = in.Spill
		} else {
			w[i] = in.Batch
		}
	}
	return w
}

// sequence generates a closed loop's requests: rounds of the weighted
// multiset, each shuffled by a generator seeded once from the run seed.
type sequence struct {
	rng   *rand.Rand
	items []int
	pos   int
}

func newSequence(w []int, seed int64) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed))}
	for i, n := range w {
		for j := 0; j < n; j++ {
			s.items = append(s.items, i)
		}
	}
	s.pos = len(s.items)
	return s
}

// roundLen is the number of requests in one round.
func (s *sequence) roundLen() int { return len(s.items) }

// next returns the pool index of the next request.
func (s *sequence) next() int {
	if s.pos == len(s.items) {
		s.rng.Shuffle(len(s.items), func(i, j int) { s.items[i], s.items[j] = s.items[j], s.items[i] })
		s.pos = 0
	}
	s.pos++
	return s.items[s.pos-1]
}

// build constructs the member's implementation.
func (in *instance) build() (*waitfree.Implementation, error) {
	if in.Protocol == multiValued {
		return waitfree.MultiValuedConsensus(in.Procs, in.Values), nil
	}
	return waitfree.BuildProtocol(in.Protocol, in.Procs)
}

// request builds the member's Check request (without spill settings).
func (in *instance) request(im *waitfree.Implementation) waitfree.Request {
	return waitfree.Request{
		Kind:           in.Kind,
		Implementation: im,
		Values:         in.Values,
		Explore: waitfree.ExploreOptions{
			Memoize:     in.Memoize,
			Symmetry:    in.Symmetry,
			Faults:      in.Faults,
			Parallelism: runtime.NumCPU(),
		},
	}
}

// digestsFile holds the expected digest of each pool member's canonical
// report, kept with the benchmark.
const digestsFile = "digests.json"

// loadDigests reads the expected digests from perfbench/ when run from
// the repository root, or from the working directory (the tests run in
// perfbench/).
func loadDigests() (map[string]string, error) {
	var data []byte
	var err error
	for _, p := range []string{filepath.Join("perfbench", digestsFile), digestsFile} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read expected digests: %w", err)
	}
	out := map[string]string{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parse %s: %w", digestsFile, err)
	}
	return out, nil
}

// reportDigest canonicalizes rep and returns the SHA-256 of its JSON.
func reportDigest(rep *waitfree.Report) (string, error) {
	rep.Canonicalize()
	data, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// writeDigests runs every pool member once, unbudgeted, and writes the
// digests of their canonical reports to path.
func writeDigests(path string) error {
	out := map[string]string{}
	for i := range pool {
		in := &pool[i]
		im, err := in.build()
		if err != nil {
			return err
		}
		rep, err := waitfree.Check(context.Background(), in.request(im))
		if err != nil {
			return fmt.Errorf("%s: %w", in.Name, err)
		}
		if !rep.OK() {
			return fmt.Errorf("%s: does not verify", in.Name)
		}
		if out[in.Name], err = reportDigest(rep); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verifyEnv is one set-up verify workload.
type verifyEnv struct {
	spill   bool
	dir     string   // verify-spill's spill directory, on the real disk
	spillFS *countFS // verify-spill's spill tier
	cpFS    *memFS   // verify-spill's checkpoints
	impls   []*waitfree.Implementation
	digests map[string]string
	seq     *sequence
	warmErr error
}

// setupVerify builds the pool, loads the expected digests, and warms up
// with one check of each of the workload's members.
func setupVerify(o options, spill bool) (*verifyEnv, error) {
	e := &verifyEnv{spill: spill, spillFS: &countFS{}, cpFS: newMemFS(), seq: newSequence(weights(spill), o.seed)}
	if err := e.cpFS.MkdirAll(cpDir, 0o755); err != nil {
		return nil, err
	}
	out, err := filepath.Abs(o.out)
	if err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(out, "spill-"); err != nil {
		return nil, err
	}
	if e.digests, err = loadDigests(); err != nil {
		e.teardown()
		return nil, err
	}
	w := weights(spill)
	for i := range pool {
		im, err := pool[i].build()
		if err != nil {
			e.teardown()
			return nil, fmt.Errorf("build %s: %w", pool[i].Name, err)
		}
		e.impls = append(e.impls, im)
	}
	for i := range pool {
		if w[i] == 0 {
			continue
		}
		if out := e.check(context.Background(), i, 0, nil, nil); out.err != nil && e.warmErr == nil {
			e.warmErr = fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return e, nil
}

func (e *verifyEnv) teardown() { os.RemoveAll(e.dir) }

// checkOutcome is one check's result.
type checkOutcome struct {
	dur   time.Duration
	stats *waitfree.ExploreStats
	err   error // the check failed or its output was wrong
}

// layerProbe collects the traced run's per-layer samples.
type layerProbe struct {
	tr      *tracer
	mu      sync.Mutex
	saveMS  []float64
	saveB   []float64
	loadMS  []float64
	mallocs uint64
	bytes   uint64
	pauseNS uint64
	skews   []float64
	totals  exploreTotals
}

// check runs pool member i once as request req and validates its output.
// With a probe (traced run), consensus requests call the explorer
// directly so its span is visible, and bound requests go through Check.
func (e *verifyEnv) check(ctx context.Context, i int, req int64, p *layerProbe, tr *tracer) checkOutcome {
	in := &pool[i]
	r := in.request(e.impls[i])
	root := tr.begin(0, req, "check "+in.Name, "loadgen")
	defer tr.end(root)

	var cp cpRecorder
	if e.spill {
		r.Explore.MemoBudget = spillBudget
		r.Explore.MemoSpillDir = e.dir
		r.Explore.FS = e.spillFS
		r.Explore.CheckpointEvery = checkpointEvery
		cp.fs, cp.path = e.cpFS, filepath.Join(cpDir, "checkpoint.wfcp")
		cp.probe, cp.parent, cp.req = p, root, req
		r.Explore.OnCheckpoint = cp.save
	}

	var before runtime.MemStats
	if p != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	var rep *waitfree.Report
	var err error
	if p != nil && in.Kind == waitfree.KindConsensus {
		k := in.Values
		if k == 0 {
			k = 2
		}
		id := tr.begin(root, req, "explore.ConsensusKContext", "explore")
		var cr *waitfree.ConsensusReport
		cr, err = explore.ConsensusKContext(ctx, r.Implementation, k, r.Explore)
		tr.end(id)
		if cr != nil {
			rep = &waitfree.Report{Schema: waitfree.ReportSchema, Kind: in.Kind, Consensus: cr, Checkpoint: cr.Checkpoint}
		}
	} else {
		id := tr.begin(root, req, "waitfree.Check", "waitfree")
		rep, err = waitfree.Check(ctx, r)
		tr.end(id)
	}
	out := checkOutcome{dur: time.Since(start)}
	if p != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		p.mu.Lock()
		p.mallocs += after.Mallocs - before.Mallocs
		p.bytes += after.TotalAlloc - before.TotalAlloc
		p.pauseNS += after.PauseTotalNs - before.PauseTotalNs
		p.mu.Unlock()
	}
	out.err = e.validate(in, rep, err, &out)
	if cerr := cp.finish(tr); cerr != nil && out.err == nil {
		out.err = cerr
	}
	return out
}

// validate checks one report: it completed, verified, carries engine
// stats, and digests to the member's expected value. A spill run must
// also have evicted into the spill tier and lost nothing.
func (e *verifyEnv) validate(in *instance, rep *waitfree.Report, err error, out *checkOutcome) error {
	if err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	if rep == nil || rep.Consensus == nil || rep.Consensus.Stats == nil {
		return fmt.Errorf("%s: no consensus report with engine stats", in.Name)
	}
	cr := rep.Consensus
	out.stats = cr.Stats
	switch {
	case cr.Partial:
		return fmt.Errorf("%s: partial report", in.Name)
	case !rep.OK():
		return fmt.Errorf("%s: does not verify: %s", in.Name, cr.Summary())
	case e.spill && cr.Degraded:
		return fmt.Errorf("%s: degraded under the spill tier", in.Name)
	case e.spill && (cr.Stats.MemoEvictions == 0 || cr.Stats.MemoSpilled != cr.Stats.MemoEvictions):
		return fmt.Errorf("%s: %d evictions, %d spilled: the budget did not drive the spill tier",
			in.Name, cr.Stats.MemoEvictions, cr.Stats.MemoSpilled)
	}
	got, derr := reportDigest(rep)
	if derr != nil {
		return fmt.Errorf("%s: %w", in.Name, derr)
	}
	if want, ok := e.digests[in.Name]; !ok || got != want {
		return fmt.Errorf("%s: report digest %s, want %q", in.Name, got, want)
	}
	return nil
}

// cpRecorder is verify-spill's OnCheckpoint: it writes each autosaved
// checkpoint with durable.SaveFS and, on a traced run, times the save
// and a load round trip of the last one.
type cpRecorder struct {
	fs     *memFS
	path   string
	probe  *layerProbe
	parent int
	req    int64

	mu    sync.Mutex
	saves int
	trees int
	err   error
}

// save runs on the engine's supervisor goroutine.
func (c *cpRecorder) save(cp *waitfree.Checkpoint) {
	var tr *tracer
	if c.probe != nil {
		tr = c.probe.tr
	}
	id := tr.begin(c.parent, c.req, "durable.SaveFS", "durable")
	start := time.Now()
	err := durable.SaveFS(c.fs, c.path, cp)
	d := time.Since(start)
	tr.end(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if c.err == nil {
			c.err = fmt.Errorf("save checkpoint: %w", err)
		}
		return
	}
	c.saves++
	c.trees = len(cp.Trees)
	if c.probe != nil {
		size := 0.0
		if data, rerr := c.fs.ReadFile(c.path); rerr == nil {
			size = float64(len(data))
		}
		c.probe.mu.Lock()
		c.probe.saveMS = append(c.probe.saveMS, d.Seconds()*1e3)
		c.probe.saveB = append(c.probe.saveB, size)
		c.probe.mu.Unlock()
	}
}

// finish runs after the check returns (the supervisor has stopped): on a
// traced run it loads the last checkpoint back and compares its tree
// count, then removes the file either way.
func (c *cpRecorder) finish(tr *tracer) error {
	if c.path == "" {
		return nil
	}
	defer c.fs.Remove(c.path) // absent when no autosave fired
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || c.saves == 0 || c.probe == nil {
		return c.err
	}
	id := tr.begin(c.parent, c.req, "durable.LoadFS", "durable")
	start := time.Now()
	cp, err := durable.LoadFS(c.fs, c.path)
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	if len(cp.Trees) != c.trees {
		return fmt.Errorf("checkpoint round trip: %d trees, saved %d", len(cp.Trees), c.trees)
	}
	c.probe.mu.Lock()
	c.probe.loadMS = append(c.probe.loadMS, d.Seconds()*1e3)
	c.probe.mu.Unlock()
	return nil
}

// loopResult is one closed-loop phase.
type loopResult struct {
	attempted, failed int
	checking          time.Duration     // time spent inside checks
	lat               []float64         // ms; +Inf for failed checks
	byMember          map[int][]float64 // ms of successful checks per pool index
	rssMB             []float64         // each check's peak resident set, with a sampler
	firstErr          error
}

// closedLoop sends checks until both dur has passed and the tail
// percentile has enough samples (or maxRunSeconds passes), or, when
// count > 0, exactly count checks. With rss, it records each check's
// peak resident set.
func (e *verifyEnv) closedLoop(dur time.Duration, count int, p *layerProbe, rss *rssSampler) loopResult {
	res := loopResult{byMember: map[int][]float64{}}
	need := samplesFor(0.90)
	start := time.Now()
	for {
		el := time.Since(start)
		if count > 0 && res.attempted == count {
			break
		}
		if count == 0 && ((el >= dur && res.attempted >= need) || el >= maxRunSeconds*time.Second) {
			break
		}
		i := e.seq.next()
		var tr *tracer
		if p != nil {
			tr = p.tr
		}
		// Collect the previous check's garbage and return it to the OS
		// outside the timed call, so each check's resident peak is its own.
		debug.FreeOSMemory()
		rss.reset()
		out := e.check(context.Background(), i, int64(res.attempted+1), p, tr)
		if rss != nil {
			res.rssMB = append(res.rssMB, rss.peakMB())
		}
		res.attempted++
		res.checking += out.dur
		if out.err != nil {
			res.failed++
			res.lat = append(res.lat, math.Inf(1))
			if res.firstErr == nil {
				res.firstErr = out.err
			}
			continue
		}
		res.lat = append(res.lat, out.dur.Seconds()*1e3)
		res.byMember[i] = append(res.byMember[i], out.dur.Seconds()*1e3)
		if p != nil {
			p.addStats(out.stats)
		}
	}
	return res
}

// exploreTotals sums the engine counters over a traced phase.
type exploreTotals struct {
	nodes, memoHits, orbits, walked, replayed    int64
	evictions, spilled, storageRetries, rebuilds int64
	engine                                       time.Duration
}

func (p *layerProbe) addStats(st *waitfree.ExploreStats) {
	if st == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(st.WorkerNodes) > 0 {
		var sum, hi int64
		for _, n := range st.WorkerNodes {
			sum += n
			hi = max(hi, n)
		}
		if sum > 0 {
			p.skews = append(p.skews, float64(hi)*float64(len(st.WorkerNodes))/float64(sum))
		}
	}
	p.totals.add(st)
}

func (t *exploreTotals) add(st *waitfree.ExploreStats) {
	t.nodes += st.Nodes
	t.memoHits += st.MemoHits
	t.orbits += int64(st.Orbits)
	t.walked += int64(st.TreesDone) - st.ReplayedTrees
	t.replayed += st.ReplayedTrees
	t.evictions += st.MemoEvictions
	t.spilled += st.MemoSpilled
	t.storageRetries += st.StorageRetries
	t.rebuilds += st.SpillRebuilds
	t.engine += st.Elapsed
}

// setExplore emits the explorer's per-layer figures from totals.
func setExplore(m *metricSet, t exploreTotals) {
	m.set("explore.nodes", float64(t.nodes))
	m.set("explore.nodes_per_s", ratio(float64(t.nodes), t.engine.Seconds()))
	m.set("explore.memo_hit_ratio", ratio(float64(t.memoHits), float64(t.nodes)))
	m.set("explore.orbits", float64(t.orbits))
	m.set("explore.trees_walked", float64(t.walked))
	m.set("explore.trees_replayed", float64(t.replayed))
	m.set("explore.evictions", float64(t.evictions))
	m.set("explore.spilled", float64(t.spilled))
	m.set("explore.storage_retries", float64(t.storageRetries))
	m.set("explore.spill_rebuilds", float64(t.rebuilds))
}

// heapSampler tracks the peak live heap while a traced phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// tracedRounds is how many whole rounds a traced verify phase runs: a
// fixed count, so explore.nodes repeats exactly for a seed.
func tracedRounds(spill bool) int {
	if spill {
		return 8
	}
	return 6
}

// runVerify runs verify-batch or verify-spill.
func runVerify(o options, spill bool) (*result, error) {
	var warmErr error
	env, setupSecs, err := timedSetups(setupRuns,
		func() (*verifyEnv, error) { return setupVerify(o, spill) },
		func(e *verifyEnv) {
			if warmErr == nil {
				warmErr = e.warmErr
			}
		},
		func(e *verifyEnv) { e.teardown() })
	if err != nil {
		return nil, err
	}
	defer env.teardown()
	m := newMetricSet()
	res := &result{metrics: m, correct: warmErr == nil}
	if warmErr != nil {
		m.note("%v", warmErr)
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	var rss *rssSampler
	if !o.trace {
		if rss, err = startRSSSampler(); err != nil {
			return nil, err
		}
	}
	loop := env.closedLoop(dur, 0, nil, rss)
	if err := rss.close(); err != nil {
		return nil, err
	}
	res.attempted, res.failed = loop.attempted, loop.failed
	if loop.firstErr != nil {
		m.note("first failure: %v", loop.firstErr)
	}
	rate := float64(loop.attempted-loop.failed) / loop.checking.Seconds()
	for i := range pool {
		if ms := loop.byMember[i]; len(ms) > 0 {
			m.note("member %s: %d checks, median %.1f ms", pool[i].Name, len(ms), median(ms))
		}
	}

	if !o.trace {
		setSetup(m, setupSecs)
		m.set("throughput_per_s", rate)
		m.setPct("latency_ms_p50", loop.lat, 0.5, 1)
		m.setPct("peak_rss_mb", loop.rssMB, 0.9, 1)
	} else {
		m.setPct("loadgen.latency_ms_p90", loop.lat, 0.90, 1)
		p := &layerProbe{tr: newTracer()}
		reads0, writes0 := env.spillFS.reads.Load(), env.spillFS.writes.Load()
		heap := startHeapSampler()
		env.seq = newSequence(weights(spill), o.seed)
		traced := env.closedLoop(0, tracedRounds(spill)*env.seq.roundLen(), p, nil)
		m.set("explore.peak_heap_mb", heap.finish())
		res.attempted += traced.attempted
		res.failed += traced.failed
		if traced.firstErr != nil {
			m.note("first traced failure: %v", traced.firstErr)
		}
		setExplore(m, p.totals)
		m.set("explore.allocs_per_node", ratio(float64(p.mallocs), float64(p.totals.nodes)))
		m.set("explore.bytes_per_node", ratio(float64(p.bytes), float64(p.totals.nodes)))
		m.set("explore.gc_pause_ms", float64(p.pauseNS)/1e6)
		m.setPct("explore.worker_skew", p.skews, 0.5, 1)
		if spill {
			m.setPct("durable.save_ms_p50", p.saveMS, 0.5, 1)
			m.setPct("durable.save_ms_p99", p.saveMS, 0.99, 1)
			m.setPct("durable.save_bytes_p50", p.saveB, 0.5, 1)
			m.setPct("durable.load_ms_p50", p.loadMS, 0.5, 1)
			writes, reads := env.spillFS.writes.Load()-writes0, env.spillFS.reads.Load()-reads0
			m.set("fsx.spill.writes_per_eviction", ratio(float64(writes), float64(p.totals.evictions)))
			m.set("fsx.spill.reads_per_eviction", ratio(float64(reads), float64(p.totals.evictions)))
		}
		tracedRate := float64(traced.attempted-traced.failed) / traced.checking.Seconds()
		m.set("trace.overhead_frac", (rate-tracedRate)/rate)
		m.set("failed_frac", ratio(float64(res.failed), float64(res.attempted)))
		addSelfTimes(m, p.tr)
		if err := p.tr.writeJSONL(spanFile(o)); err != nil {
			return nil, err
		}
	}
	res.correct = res.correct && res.failed == 0
	if res.attempted == 0 {
		return nil, errors.New("no checks ran")
	}
	return res, nil
}
