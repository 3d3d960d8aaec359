package explore

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// This file implements the engine's observability surface: cumulative
// counters shared by all workers and point-in-time Stats snapshots, which
// the run's supervisor (supervise.go) publishes through Options.OnProgress.
//
// Two kinds of numbers coexist and must not be confused:
//
//   - The REPORT counters (Result.Nodes, ConsensusReport.Nodes, ...) are
//     semantic: they are merged per tree in proposal-vector order and are a
//     pure function of the implementation, identical at every parallelism
//     level.
//   - The ENGINE counters below are observational: they accumulate across
//     workers as work happens, include trees explored speculatively past a
//     violation, and exist so a caller can watch, bound, or abort a run.
//     At the end of an uncancelled, violation-free run the two agree.

// DefaultProgressInterval is the OnProgress tick when
// Options.ProgressInterval is 0.
const DefaultProgressInterval = 250 * time.Millisecond

// flushEvery is the node period at which a worker flushes its local
// counters into the shared engine counters and polls the run context.
// Cancellation latency is bounded by the time to explore this many
// configurations (microseconds in practice).
const flushEvery = 256

// Stats is a snapshot of a running (or finished) exploration engine.
type Stats struct {
	// Nodes, Leaves, and MemoHits accumulate over every configuration any
	// worker has entered, including trees later discarded by the
	// deterministic merge.
	Nodes    int64 `json:"nodes"`
	Leaves   int64 `json:"leaves"`
	MemoHits int64 `json:"memo_hits"`
	// MaxDepth is the deepest configuration any worker had entered at its
	// last counter flush; CurDepth is the depth of the most recent flush
	// (a liveness indicator, not a bound).
	MaxDepth int `json:"max_depth"`
	CurDepth int `json:"cur_depth"`
	// TreesDone / TreesTotal count finished proposal-vector trees (explored
	// or, under symmetry reduction, replayed from an orbit sibling);
	// Frontier is the remainder (trees still queued or in flight).
	TreesDone  int `json:"trees_done"`
	TreesTotal int `json:"trees_total"`
	Frontier   int `json:"frontier"`
	// Orbits / OrbitsDone count process-permutation orbits when symmetry
	// reduction is active (zero otherwise); ReplayedTrees counts the member
	// trees whose outcome was replayed from an explored representative
	// instead of being explored. TreesDone - ReplayedTrees is the number of
	// trees the engine actually walked.
	Orbits        int   `json:"orbits,omitempty"`
	OrbitsDone    int   `json:"orbits_done,omitempty"`
	ReplayedTrees int64 `json:"replayed_trees,omitempty"`
	// Workers is the worker-goroutine count; WorkerNodes[w] is worker w's
	// cumulative node count, the basis of per-worker throughput. The slice
	// is freshly allocated for every snapshot — never a view of live engine
	// state — so an OnProgress callback may retain it or read it from
	// another goroutine without racing the workers' counter flushes.
	Workers     int     `json:"workers"`
	WorkerNodes []int64 `json:"worker_nodes,omitempty"`
	// Degraded reports that at least one tree's memo table hit
	// Options.MemoBudget and forgot evicted entries (graceful degradation:
	// verdicts stay exact, memo hits are lost). Never set while a spill
	// tier (Options.MemoSpillDir) is absorbing the evictions.
	Degraded bool `json:"degraded,omitempty"`
	// MemoEvictions counts memo entries reclaimed under Options.MemoBudget
	// across finished trees; MemoSpilled counts how many of those moved to
	// the disk-spill tier instead of being forgotten. Both stay zero on
	// unbudgeted runs.
	MemoEvictions int64 `json:"memo_evictions,omitempty"`
	MemoSpilled   int64 `json:"memo_spilled,omitempty"`
	// StorageRetries counts transient spill-tier I/O faults absorbed by
	// the unified retry policy (fsx.DefaultRetry); SpillRebuilds counts
	// spill files discarded and restarted after an unabsorbed fault;
	// SpillBroken reports at least one tree's spill tier broke outright
	// (its run degrades exactly as if no spill were configured). All stay
	// zero on a healthy disk.
	StorageRetries int64 `json:"storage_retries,omitempty"`
	SpillRebuilds  int64 `json:"spill_rebuilds,omitempty"`
	SpillBroken    bool  `json:"spill_broken,omitempty"`
	// SpillBytes counts the record bytes the spill tier took, written or
	// still in a tree's pending block; SpillWrites counts the 4 KiB
	// blocks it wrote. A tree's last block is never written, so
	// SpillWrites stays within SpillBytes/4096 plus one per tree. Both
	// are summed over finished trees and stay zero without a spill tier.
	SpillWrites int64 `json:"spill_writes,omitempty"`
	SpillBytes  int64 `json:"spill_bytes,omitempty"`
	// TransHits and TransMisses count transition-cache lookups (one per
	// live process per expanded configuration) that found a cached
	// Spec.Apply outcome or had to compute one; StepHits and StepMisses do
	// the same for the step cache (one per access edge outside a Walk).
	// They are flushed with Nodes.
	TransHits   int64 `json:"trans_hits,omitempty"`
	TransMisses int64 `json:"trans_misses,omitempty"`
	StepHits    int64 `json:"step_hits,omitempty"`
	StepMisses  int64 `json:"step_misses,omitempty"`
	// InternedObjs and InternedProcs sum, over finished trees, the
	// distinct object states and process states each tree's intern tables
	// held: the component state counts the caches and memo keys are
	// bounded by.
	InternedObjs  int64 `json:"interned_objs,omitempty"`
	InternedProcs int64 `json:"interned_procs,omitempty"`
	// Heartbeats[w] is worker w's liveness record: what it is exploring
	// and when it last flushed progress. The stall watchdog
	// (Options.StallAfter) reads the same records; snapshots copy them, so
	// retaining a Stats never aliases live engine state.
	Heartbeats []WorkerHeartbeat `json:"heartbeats,omitempty"`
	// Elapsed is the wall-clock time since the engine started.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// WorkerHeartbeat is one worker's liveness record within a Stats
// snapshot.
type WorkerHeartbeat struct {
	// Worker is the worker index (aligned with WorkerNodes).
	Worker int `json:"worker"`
	// Mask is the proposal-vector tree the worker is exploring, -1 when it
	// is idle (between trees, or exited).
	Mask int `json:"mask"`
	// Depth is the configuration depth at the worker's last counter flush.
	Depth int `json:"depth"`
	// SinceProgress is how long ago the worker last flushed node progress.
	SinceProgress time.Duration `json:"since_progress_ns"`
	// ConfigKey is the hex key of the configuration at the last flush,
	// captured only when the stall watchdog is armed (Options.StallAfter):
	// the same diagnostic the panic handler attaches, so a wedged spec can
	// be replayed.
	ConfigKey string `json:"config_key,omitempty"`
}

func (h WorkerHeartbeat) String() string {
	if h.Mask < 0 {
		return fmt.Sprintf("worker %d: idle", h.Worker)
	}
	s := fmt.Sprintf("worker %d: mask=%d depth=%d idle=%v", h.Worker, h.Mask, h.Depth, h.SinceProgress.Round(time.Millisecond))
	if h.ConfigKey != "" {
		s += " key=" + h.ConfigKey
	}
	return s
}

// NodesPerSecond returns the aggregate node throughput so far.
func (s Stats) NodesPerSecond() float64 {
	secs := s.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(s.Nodes) / secs
}

// String renders the snapshot as one progress line.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore: trees %d/%d nodes=%d leaves=%d memo=%d depth<=%d cur=%d workers=%d %.0f nodes/s elapsed=%s",
		s.TreesDone, s.TreesTotal, s.Nodes, s.Leaves, s.MemoHits,
		s.MaxDepth, s.CurDepth, s.Workers, s.NodesPerSecond(), s.Elapsed.Round(time.Millisecond))
	if s.Orbits > 0 {
		fmt.Fprintf(&b, " orbits=%d/%d replayed=%d", s.OrbitsDone, s.Orbits, s.ReplayedTrees)
	}
	return b.String()
}

// counters is the shared, atomically updated engine state behind Stats.
type counters struct {
	start      time.Time
	treesTotal int
	// orbitsTotal is nonzero exactly when symmetry reduction is active
	// (set by ConsensusKContext after planOrbits); it gates the orbit
	// fields in snapshots so unreduced runs keep their exact Stats shape.
	orbitsTotal int

	nodes          atomic.Int64
	leaves         atomic.Int64
	memoHits       atomic.Int64
	maxDepth       atomic.Int64
	curDepth       atomic.Int64
	treesDone      atomic.Int64
	orbitsDone     atomic.Int64
	replayedTrees  atomic.Int64
	degraded       atomic.Bool
	memoEvictions  atomic.Int64
	memoSpilled    atomic.Int64
	storageRetries atomic.Int64
	spillRebuilds  atomic.Int64
	spillBroken    atomic.Bool
	spillWrites    atomic.Int64
	spillBytes     atomic.Int64
	transHits      atomic.Int64
	transMisses    atomic.Int64
	stepHits       atomic.Int64
	stepMisses     atomic.Int64
	internedObjs   atomic.Int64
	internedProcs  atomic.Int64

	workerNodes []atomic.Int64
	beats       []workerBeat

	// Soft-stop machinery (consensus engines only; nil/zero elsewhere):
	// maxNodes is Options.MaxNodes, softCancel cancels the engine's
	// internal run context, and tripped/tripReason latch the first soft
	// stop so the post-join dispatch can tell a budget stop from a stall.
	// captureKeys arms per-flush config-key capture for the heartbeats.
	maxNodes    int64
	captureKeys bool
	softCancel  func()
	tripped     atomic.Bool
	tripReason  atomic.Int32
}

// Soft-stop trip reasons.
const (
	tripNone int32 = iota
	tripNodeBudget
	tripStall
)

// workerBeat is one worker's live heartbeat record, written by the worker
// at claim time and every counter flush, read by snapshots and the stall
// watchdog.
type workerBeat struct {
	lastProgress atomic.Int64 // unix nanoseconds of the last flush
	mask         atomic.Int64 // current tree mask, -1 when idle
	depth        atomic.Int64
	key          atomic.Pointer[string] // hex config key (captureKeys only)
}

func newCounters(workers, treesTotal int) *counters {
	c := &counters{
		start:       time.Now(),
		treesTotal:  treesTotal,
		workerNodes: make([]atomic.Int64, workers),
		beats:       make([]workerBeat, workers),
	}
	now := c.start.UnixNano()
	for i := range c.beats {
		c.beats[i].mask.Store(-1)
		c.beats[i].lastProgress.Store(now)
	}
	return c
}

// claimBeat records that worker widx started working on tree mask (-1 =
// idle); claiming counts as progress so a worker racing through many tiny
// trees never looks stalled.
func (c *counters) claimBeat(widx, mask int) {
	b := &c.beats[widx]
	b.mask.Store(int64(mask))
	b.lastProgress.Store(time.Now().UnixNano())
}

// trip latches the first soft stop and cancels the engine's internal run
// context. A no-op outside the consensus engines (softCancel nil) and
// after the first trip.
func (c *counters) trip(reason int32) {
	if c.softCancel == nil {
		return
	}
	if c.tripped.CompareAndSwap(false, true) {
		c.tripReason.Store(reason)
		c.softCancel()
	}
}

// bumpMaxDepth raises maxDepth to d if d is larger.
func (c *counters) bumpMaxDepth(d int64) {
	for {
		cur := c.maxDepth.Load()
		if d <= cur || c.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// snapshot captures a Stats value. Individual fields are read atomically
// but the snapshot as a whole is not a consistent cut; it is monotone
// enough for progress display and cancellation accounting.
func (c *counters) snapshot() Stats {
	s := Stats{
		Nodes:          c.nodes.Load(),
		Leaves:         c.leaves.Load(),
		MemoHits:       c.memoHits.Load(),
		MaxDepth:       int(c.maxDepth.Load()),
		CurDepth:       int(c.curDepth.Load()),
		TreesDone:      int(c.treesDone.Load()),
		TreesTotal:     c.treesTotal,
		Workers:        len(c.workerNodes),
		WorkerNodes:    make([]int64, len(c.workerNodes)),
		Degraded:       c.degraded.Load(),
		MemoEvictions:  c.memoEvictions.Load(),
		MemoSpilled:    c.memoSpilled.Load(),
		StorageRetries: c.storageRetries.Load(),
		SpillRebuilds:  c.spillRebuilds.Load(),
		SpillBroken:    c.spillBroken.Load(),
		SpillWrites:    c.spillWrites.Load(),
		SpillBytes:     c.spillBytes.Load(),
		TransHits:      c.transHits.Load(),
		TransMisses:    c.transMisses.Load(),
		StepHits:       c.stepHits.Load(),
		StepMisses:     c.stepMisses.Load(),
		InternedObjs:   c.internedObjs.Load(),
		InternedProcs:  c.internedProcs.Load(),
		Elapsed:        time.Since(c.start),
	}
	s.Frontier = s.TreesTotal - s.TreesDone
	if c.orbitsTotal > 0 {
		s.Orbits = c.orbitsTotal
		s.OrbitsDone = int(c.orbitsDone.Load())
		s.ReplayedTrees = c.replayedTrees.Load()
	}
	// WorkerNodes is copied element-wise into the fresh slice allocated
	// above: snapshots own their slice outright (see the Stats field docs),
	// so OnProgress callbacks that retain one never alias live counters.
	for i := range c.workerNodes {
		s.WorkerNodes[i] = c.workerNodes[i].Load()
	}
	now := time.Now().UnixNano()
	s.Heartbeats = make([]WorkerHeartbeat, len(c.beats))
	for i := range c.beats {
		b := &c.beats[i]
		hb := WorkerHeartbeat{
			Worker:        i,
			Mask:          int(b.mask.Load()),
			Depth:         int(b.depth.Load()),
			SinceProgress: time.Duration(now - b.lastProgress.Load()),
		}
		if kp := b.key.Load(); kp != nil {
			hb.ConfigKey = *kp
		}
		s.Heartbeats[i] = hb
	}
	return s
}
