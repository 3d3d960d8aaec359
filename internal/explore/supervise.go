package explore

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"waitfree/internal/program"
)

// This file implements the supervision layer of the engines: one
// background goroutine per run that publishes progress snapshots
// (Options.OnProgress), autosaves the consensus frontier
// (Options.CheckpointEvery / OnCheckpoint), and runs the stall watchdog
// (Options.StallAfter); and the partial-coverage contract
// (Options.MaxNodes and deadline expiry degrade to a ConsensusReport with
// Partial set instead of erroring — see ConsensusKContext).

// Coverage reasons.
const (
	// CoverageDeadline: the run context's deadline expired.
	CoverageDeadline = "deadline"
	// CoverageNodeBudget: the engine passed Options.MaxNodes.
	CoverageNodeBudget = "node-budget"
	// CoverageStall: the stall watchdog stopped the run (see StallError).
	CoverageStall = "stall"
)

// Coverage describes how far a partial consensus run got before its soft
// budget, deadline, or the stall watchdog stopped it.
type Coverage struct {
	// Reason is one of the Coverage* constants.
	Reason string `json:"reason"`
	// TreesDone / TreesTotal count finished proposal-vector trees;
	// TreesMerged is the contiguous mask prefix actually folded into the
	// report's bounds (trees finished out of order are checkpointed but
	// not merged).
	TreesDone   int `json:"trees_done"`
	TreesTotal  int `json:"trees_total"`
	TreesMerged int `json:"trees_merged"`
	// Nodes is the engine's configuration count, including trees not
	// merged.
	Nodes int64 `json:"nodes"`
	// DeepestFrontier is the deepest configuration any worker reached.
	DeepestFrontier int `json:"deepest_frontier"`
}

func (c *Coverage) String() string {
	return fmt.Sprintf("coverage: %d/%d trees done (%d merged), %d nodes, deepest frontier %d, stopped by %s",
		c.TreesDone, c.TreesTotal, c.TreesMerged, c.Nodes, c.DeepestFrontier, c.Reason)
}

// StallError reports a worker that made no node progress for
// Options.StallAfter: a wedged Spec.Step or Machine, or a pathologically
// slow configuration. It accompanies the partial report ConsensusKContext
// returns when the watchdog stops a run.
type StallError struct {
	// Worker is the stalled worker's index (see Stats.WorkerNodes).
	Worker int `json:"worker"`
	// Mask and Proposals identify the tree the worker was exploring.
	Mask      int   `json:"mask"`
	Proposals []int `json:"proposals"`
	// Depth and ConfigKey locate the worker's last flushed configuration;
	// ConfigKey is the same hex key the panic handler renders, so the
	// offending configuration can be identified across runs.
	Depth     int    `json:"depth"`
	ConfigKey string `json:"config_key,omitempty"`
	// Idle is how long the worker had made no progress when flagged.
	Idle time.Duration `json:"idle_ns"`
	// Abandoned reports that the worker did not unwind within the grace
	// period after cancellation — it is stuck inside user code that never
	// polls the context — so its goroutine was abandoned (it reclaims
	// itself if the user code ever returns).
	Abandoned bool `json:"abandoned,omitempty"`
}

func (e *StallError) Error() string {
	s := fmt.Sprintf("explore: worker %d stalled for %v on tree %d (proposals %v) at depth %d",
		e.Worker, e.Idle.Round(time.Millisecond), e.Mask, e.Proposals, e.Depth)
	if e.ConfigKey != "" {
		s += ", config key " + e.ConfigKey
	}
	if e.Abandoned {
		s += "; worker did not unwind and was abandoned (stuck in user code)"
	}
	return s
}

// supervisor is the per-run goroutine behind progress snapshots,
// autosave, and the stall watchdog. It is started before the workers and
// joined (stop) before the report is assembled, so reads of its stall
// record never race. Its methods are no-ops on a nil supervisor, which is
// what startSupervisor returns when the run asks for none of the three.
type supervisor struct {
	quit   chan struct{}
	joined chan struct{}
	// abandon is closed when a stalled worker failed to unwind within the
	// grace period: the main goroutine stops waiting for the workers and
	// assembles the partial report without them.
	abandon chan struct{}
	stall   atomic.Pointer[StallError]
	// onProgress receives the final snapshot once the goroutine is joined.
	onProgress func(Stats)
	ctr        *counters
}

// startSupervisor launches the supervision loop, or returns nil when the
// run sets none of OnProgress, autosave, and the watchdog. snapshotCP must
// be safe to call concurrently with running workers (it reads outcomes
// through the done flags); workersDone closes when every worker has
// returned. One ticker serves all three duties at the shortest of their
// periods (the watchdog's is StallAfter/4, bounding detection latency past
// the deadline); a longer duty runs every so many ticks.
func startSupervisor(opts Options, ctr *counters, im *program.Implementation, k int,
	snapshotCP func() *Checkpoint, workersDone <-chan struct{}) *supervisor {
	progress := cmp.Or(opts.ProgressInterval, DefaultProgressInterval)
	var periods []time.Duration
	if opts.OnProgress != nil {
		periods = append(periods, progress)
	}
	if opts.OnCheckpoint != nil {
		periods = append(periods, max(opts.CheckpointEvery, time.Millisecond))
	}
	if opts.StallAfter > 0 {
		periods = append(periods, max(opts.StallAfter/4, time.Millisecond))
	}
	if len(periods) == 0 {
		return nil
	}
	tick := slices.Min(periods)
	progressTicks, saveTicks := max(1, int(progress/tick)), max(1, int(opts.CheckpointEvery/tick))
	s := &supervisor{
		quit:       make(chan struct{}),
		joined:     make(chan struct{}),
		abandon:    make(chan struct{}),
		onProgress: opts.OnProgress,
		ctr:        ctr,
	}
	go func() {
		defer close(s.joined)
		t := time.NewTicker(tick)
		defer t.Stop()
		savedTrees := -1
		for n := 1; ; n++ {
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
			if opts.OnProgress != nil && n%progressTicks == 0 {
				opts.OnProgress(ctr.snapshot())
			}
			if opts.OnCheckpoint != nil && n%saveTicks == 0 {
				if cp := snapshotCP(); len(cp.Trees) != savedTrees {
					savedTrees = len(cp.Trees)
					opts.OnCheckpoint(cp)
				}
			}
			if opts.StallAfter <= 0 {
				continue
			}
			now := time.Now().UnixNano()
			for w := range ctr.beats {
				b := &ctr.beats[w]
				mask := int(b.mask.Load())
				if mask < 0 {
					continue // idle or exited
				}
				idle := time.Duration(now - b.lastProgress.Load())
				if idle < opts.StallAfter {
					continue
				}
				se := &StallError{
					Worker:    w,
					Mask:      mask,
					Proposals: ProposalVectorK(mask, im.Procs, k),
					Depth:     int(b.depth.Load()),
					Idle:      idle,
				}
				if kp := b.key.Load(); kp != nil {
					se.ConfigKey = *kp
				}
				ctr.trip(tripStall)
				// Grace period: workers that poll the context unwind within
				// flushEvery nodes; one truly stuck inside user code never
				// will, so cap the wait and abandon it.
				grace := min(max(opts.StallAfter, 100*time.Millisecond), 2*time.Second)
				select {
				case <-workersDone:
					s.stall.Store(se)
				case <-time.After(grace):
					se.Abandoned = true
					// Store strictly before closing abandon: the main
					// goroutine reads the pointer only after this close (or
					// after joining us), so the record is always complete.
					s.stall.Store(se)
					close(s.abandon)
				}
				return
			}
		}
	}()
	return s
}

// abandoned returns the channel closed when the watchdog gave up on a
// stuck worker (nil, which never fires, on a nil supervisor).
func (s *supervisor) abandoned() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.abandon
}

// stop joins the supervisor and then publishes one final progress
// snapshot, so a caller that cancels mid-run still observes the partial
// totals. After it returns, stallErr is stable.
func (s *supervisor) stop() {
	if s == nil {
		return
	}
	close(s.quit)
	<-s.joined
	if s.onProgress != nil {
		s.onProgress(s.ctr.snapshot())
	}
}

// stallErr returns the watchdog's finding, nil if none. Only valid after
// stop (or after abandon closed).
func (s *supervisor) stallErr() *StallError {
	if s == nil {
		return nil
	}
	return s.stall.Load()
}
