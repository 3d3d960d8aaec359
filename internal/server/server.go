package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"waitfree"
	"waitfree/internal/fsx"
	"waitfree/internal/rescache"
)

// Options configures a Server.
type Options struct {
	// Workers is the verification worker pool size (0 = GOMAXPROCS).
	// Each worker runs one job at a time; a job's own engine parallelism
	// is a per-request matter (wire explore.parallelism).
	Workers int
	// QueueDepth bounds the admission queue (0 = 256); submissions beyond
	// it are rejected with 503 queue_full rather than buffered unboundedly.
	QueueDepth int
	// DataDir persists job state in durable envelopes so jobs survive a
	// daemon restart ("" = in-memory only).
	DataDir string
	// Cache, if set, fronts every job with the content-addressed result
	// cache: repeat and symmetry-equivalent submissions are O(1) reads
	// with byte-identical reports.
	Cache *rescache.Cache
	// ProgressInterval is the engine stats cadence feeding SSE streams
	// (0 = the engine default, explore.DefaultProgressInterval).
	ProgressInterval time.Duration
	// CheckpointEvery is the durable autosave cadence for resumable jobs
	// (0 = 2s; the engine autosaves only at a positive interval); a killed
	// daemon loses at most this much work per job.
	CheckpointEvery time.Duration
	// MaxTimeout caps the per-job wall-clock deadline a submission may
	// request through wire timeout_ms (0 = no cap). Requests above the cap
	// are silently clamped, not rejected, so a fleet-wide policy change
	// does not break existing clients.
	MaxTimeout time.Duration
	// FS is the filesystem the durable job store performs its I/O through
	// (nil = the real one). The chaos smoke test passes an *fsx.FaultFS
	// (via WAITFREED_FAULT_FS) to prove the daemon degrades instead of
	// wedging on a failing disk.
	FS fsx.FS
	// Logf receives operational log lines (0 = discard).
	Logf func(format string, args ...any)
}

// Server is the waitfreed daemon: HTTP handlers, a bounded worker pool,
// the job table, and the durable job store.
type Server struct {
	opts  Options
	store *store
	mux   *http.ServeMux

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string

	queue    chan *Job
	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	started  time.Time
	running  atomic.Int64

	// persistCtx bounds every durable job write's retry backoff; Drain
	// cancels it when its own deadline expires so workers blocked in a
	// failing persist release promptly instead of outliving the drain.
	persistCtx    context.Context
	persistCancel context.CancelFunc
}

// New builds a server, loading any persisted jobs from Options.DataDir:
// terminal jobs become queryable history, non-terminal jobs are
// re-queued — with their stored checkpoint when their kind supports
// resume. Call Start to launch the workers.
func New(opts Options) (*Server, error) {
	if opts.ProgressInterval < 0 {
		// Every job's engine would reject it; refuse the daemon instead.
		return nil, fmt.Errorf("server: negative ProgressInterval %v", opts.ProgressInterval)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 2 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	st, err := newStore(opts.DataDir, opts.FS)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		store:   st,
		jobs:    make(map[string]*Job),
		stop:    make(chan struct{}),
		started: time.Now(),
	}
	s.persistCtx, s.persistCancel = context.WithCancel(context.Background())
	s.routes()
	if err := s.loadJobs(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadJobs rebuilds the job table from the durable store and creates the
// admission queue, sized to hold every re-queued job even when a prior
// run persisted more than QueueDepth of them.
func (s *Server) loadJobs() error {
	manifests, err := s.store.loadAll(s.opts.Logf)
	if err != nil {
		return err
	}
	depth := s.opts.QueueDepth
	if len(manifests) > depth {
		depth = len(manifests)
	}
	s.queue = make(chan *Job, depth)
	for _, m := range manifests {
		wire, _, cerr := DecodeWire(m.Wire)
		if cerr != nil {
			// The wire form no longer compiles (registry drift across
			// versions): surface the job as failed rather than dropping it.
			s.opts.Logf("job %s no longer compiles: %v", m.ID, cerr)
			wire = &WireRequest{API: APIVersion, Kind: "unknown"}
		}
		j := &Job{
			id:       m.ID,
			wire:     wire,
			raw:      m.Wire,
			state:    m.State,
			err:      m.Error,
			ok:       m.OK,
			report:   m.Report,
			chkpoint: m.Checkpoint,
			resumes:  m.Resumes,
			created:  m.Created,
			started:  m.Started,
			finished: m.Finished,
			hub:      newHub(),
		}
		if cerr != nil && !j.state.Terminal() {
			j.state = JobFailed
			j.err = &WireError{Code: waitfree.ErrorCode(cerr), Message: cerr.Error()}
			j.finished = time.Now()
		}
		if j.state.Terminal() {
			j.hub.close(Event{})
		} else {
			// The daemon died or drained with this job in flight (or
			// queued): run it again. A stored checkpoint makes the rerun a
			// resume (runJob counts it); state returns to queued either way.
			j.state = JobQueued
			j.started = time.Time{}
			s.queue <- j
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if err := s.store.save(s.persistCtx, j); err != nil {
			s.opts.Logf("%v", err)
		}
	}
	if n := len(manifests); n > 0 {
		s.opts.Logf("loaded %d persisted jobs", n)
	}
	return nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.stop:
					return
				case j := <-s.queue:
					s.runJob(j)
				}
			}
		}()
	}
}

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the pool down: stop admitting (503), cancel
// every running job so it checkpoints and returns to queued, persist all
// state, and release the workers. Jobs still queued stay queued in the
// store; the next start resumes everything. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == JobRunning && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// The drain deadline expired with workers still busy — most likely
		// wedged in a persist retry loop over a failing disk. Abort every
		// in-flight and future durable write's backoff so the workers (and
		// the process) can exit; the envelopes on disk stay atomic.
		s.persistCancel()
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// runJob executes one job end to end on a pool worker.
func (s *Server) runJob(j *Job) {
	if s.draining.Load() {
		// Drained between dequeue and run: the job's stored state is still
		// queued, so the next start picks it up.
		return
	}
	j.mu.Lock()
	if j.state != JobQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	_, req, cerr := DecodeWire(j.raw)
	if cerr != nil {
		j.mu.Unlock()
		s.finishJob(j, nil, cerr)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel // the parent cancel, so user cancel and drain preempt the deadline
	if ms := j.wire.TimeoutMS; ms > 0 {
		d := time.Duration(ms) * time.Millisecond
		if s.opts.MaxTimeout > 0 && d > s.opts.MaxTimeout {
			d = s.opts.MaxTimeout
		}
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, d)
		defer tcancel()
	}
	j.state = JobRunning
	j.started = time.Now()
	resumable := j.wire.Resumable()
	if resumable && len(j.chkpoint) > 0 {
		cp := &waitfree.Checkpoint{}
		if err := json.Unmarshal(j.chkpoint, cp); err == nil {
			req.Explore.ResumeFrom = cp
			j.resumes++
		} else {
			s.opts.Logf("job %s: stored checkpoint unreadable, restarting: %v", j.id, err)
		}
	}
	j.mu.Unlock()
	defer cancel()
	if s.draining.Load() {
		// Drain's cancel sweep can walk the job table between our entry
		// check and j.cancel being set above, leaving this job with a
		// context nobody cancels. Drain flips the flag before sweeping, so
		// re-checking here after publishing j.cancel closes the window:
		// either the sweep saw j.cancel, or we see draining and self-cancel.
		// The engine then returns promptly and the drain path below
		// checkpoints the job back to queued.
		cancel()
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	req.Explore.ProgressInterval = s.opts.ProgressInterval
	req.Explore.OnProgress = func(st waitfree.ExploreStats) {
		if data, err := json.Marshal(st); err == nil {
			j.hub.publish(Event{Type: "stats", Data: data})
		}
	}
	if resumable && s.store.enabled() {
		req.Explore.CheckpointEvery = s.opts.CheckpointEvery
		req.Explore.OnCheckpoint = func(cp *waitfree.Checkpoint) {
			s.saveCheckpoint(j, cp)
		}
	}
	req.Cache = s.opts.Cache

	s.persist(j)
	j.hub.publish(Event{Type: "state", Data: mustJSON(j.view())})
	s.opts.Logf("job %s: running (%s %s)", j.id, j.wire.Kind, j.wire.Protocol)

	rep, err := waitfree.Check(ctx, req)

	if err != nil && errors.Is(err, context.Canceled) {
		j.mu.Lock()
		userCancel := j.cancelRequested
		j.mu.Unlock()
		if !userCancel && s.draining.Load() {
			// Drain: bank the freshest checkpoint and return to queued; the
			// next start resumes from it.
			if rep != nil && rep.Checkpoint != nil {
				s.saveCheckpoint(j, rep.Checkpoint)
			}
			j.mu.Lock()
			j.state = JobQueued
			j.started = time.Time{}
			j.cancel = nil
			j.mu.Unlock()
			s.persist(j)
			s.opts.Logf("job %s: drained back to queued", j.id)
			return
		}
		if userCancel {
			if rep != nil && rep.Checkpoint != nil {
				s.saveCheckpoint(j, rep.Checkpoint)
			}
			j.mu.Lock()
			j.state = JobCancelled
			j.finished = time.Now()
			j.cancel = nil
			j.mu.Unlock()
			s.persist(j)
			j.hub.close(Event{Type: "done", Data: mustJSON(j.view())})
			s.opts.Logf("job %s: cancelled", j.id)
			return
		}
	}
	s.finishJob(j, rep, err)
}

// finishJob records a terminal verdict: done with a canonical report, or
// failed with a taxonomy code.
func (s *Server) finishJob(j *Job, rep *waitfree.Report, err error) {
	j.mu.Lock()
	j.cancel = nil
	if err != nil {
		j.state = JobFailed
		j.err = &WireError{Code: waitfree.ErrorCode(err), Message: err.Error()}
	} else {
		// Canonicalize so the served report is a pure function of the
		// request: cold runs, cache hits, and checkpoint-resumed reruns
		// are all byte-identical.
		rep.Canonicalize()
		if data, merr := json.Marshal(rep); merr == nil {
			j.report = data
		} else {
			j.state = JobFailed
			j.err = &WireError{Code: waitfree.CodeInternal, Message: merr.Error()}
		}
		if j.err == nil {
			ok := rep.OK()
			j.ok = &ok
			j.state = JobDone
			if rep.Checkpoint == nil {
				j.chkpoint = nil // complete runs leave no frontier behind
			}
		}
	}
	j.finished = time.Now()
	state := j.state
	j.mu.Unlock()
	s.persist(j)
	j.hub.close(Event{Type: "done", Data: mustJSON(j.view())})
	s.opts.Logf("job %s: %s", j.id, state)
}

// saveCheckpoint stores a fresh engine checkpoint durably and announces
// it on the event stream.
func (s *Server) saveCheckpoint(j *Job, cp *waitfree.Checkpoint) {
	data, err := json.Marshal(cp)
	if err != nil {
		s.opts.Logf("job %s: marshal checkpoint: %v", j.id, err)
		return
	}
	j.mu.Lock()
	j.chkpoint = data
	j.mu.Unlock()
	s.persist(j)
	j.hub.publish(Event{Type: "checkpoint", Data: mustJSON(map[string]any{
		"trees": len(cp.Trees), "roots": cp.Roots,
	})})
}

// persist writes the job durably, logging (never failing) on error: the
// in-memory job table remains authoritative for this process's lifetime.
func (s *Server) persist(j *Job) {
	if err := s.store.save(s.persistCtx, j); err != nil {
		s.opts.Logf("%v", err)
	}
}

// submit admits a new job: persist first, then enqueue, so an accepted
// job is never lost to a crash.
func (s *Server) submit(raw []byte) (*Job, error) {
	if s.draining.Load() {
		return nil, &WireError{Code: CodeDraining, Message: "server is draining; resubmit after restart"}
	}
	wire, _, err := DecodeWire(raw)
	if err != nil {
		return nil, err
	}
	j := &Job{
		id:      newJobID(),
		wire:    wire,
		raw:     append(json.RawMessage(nil), raw...),
		state:   JobQueued,
		created: time.Now(),
		hub:     newHub(),
	}
	if err := s.store.save(s.persistCtx, j); err != nil {
		// Persist-before-enqueue is the durability contract: a job the
		// store cannot write is refused (503, storage_degraded) rather than
		// accepted into memory where a crash would lose it. The daemon
		// itself stays healthy — reads, cancels, and streams keep working.
		s.opts.Logf("%v", err)
		return nil, &WireError{
			Code:    CodeStorageDegraded,
			Message: "durable job store cannot persist the job; retry later",
		}
	}
	// Enqueue and register under one lock hold, and only register after
	// the send succeeds: a rejected job never appears in the table, so
	// there is no rollback to race with concurrent submits, and Drain's
	// sweep (which takes s.mu) sees every job a worker can dequeue.
	s.mu.Lock()
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		// Persist-before-enqueue means a crash in this window leaves an
		// orphan envelope that the next start re-queues even though the
		// client saw 503 — an at-least-once anomaly we accept, since the
		// reverse order would lose an accepted job to a crash between
		// enqueue and save.
		if s.store.enabled() {
			_ = s.store.remove(j.id)
		}
		return nil, &WireError{Code: CodeQueueFull, Message: "admission queue is full"}
	}
	return j, nil
}

// job looks a job up by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob requests cancellation: queued jobs are cancelled on the
// spot, running jobs are cancelled through their context (the engine
// returns promptly and the worker finalizes). Terminal jobs conflict.
func (s *Server) cancelJob(j *Job) error {
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return &WireError{Code: CodeConflict, Message: "job already " + string(j.state)}
	case j.state == JobQueued:
		j.cancelRequested = true
		j.state = JobCancelled
		j.finished = time.Now()
		j.mu.Unlock()
		s.persist(j)
		j.hub.close(Event{Type: "done", Data: mustJSON(j.view())})
		return nil
	default: // running
		j.cancelRequested = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	}
}

// StatsView is the GET /v1/stats body.
type StatsView struct {
	Workers   int   `json:"workers"`
	Running   int64 `json:"running"`
	Queued    int   `json:"queued"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Cancelled int   `json:"cancelled"`
	Jobs      int   `json:"jobs"`
	// Cache is the result cache's cumulative counters (nil without a
	// cache).
	Cache *rescache.Stats `json:"cache,omitempty"`
	// Storage is the durable job store's health counters (nil without a
	// DataDir).
	Storage *StorageHealth `json:"storage,omitempty"`
	// Draining reports a shutdown in progress.
	Draining bool  `json:"draining,omitempty"`
	UptimeMS int64 `json:"uptime_ms"`
}

func (s *Server) statsView() *StatsView {
	v := &StatsView{
		Workers:  s.opts.Workers,
		Running:  s.running.Load(),
		Draining: s.draining.Load(),
		UptimeMS: time.Since(s.started).Milliseconds(),
	}
	s.mu.Lock()
	v.Jobs = len(s.jobs)
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case JobQueued:
			v.Queued++
		case JobDone:
			v.Done++
		case JobFailed:
			v.Failed++
		case JobCancelled:
			v.Cancelled++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	if s.opts.Cache != nil {
		st := s.opts.Cache.Stats()
		v.Cache = &st
	}
	v.Storage = s.store.healthView()
	return v
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: job id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: marshal %T: %v", v, err))
	}
	return data
}
