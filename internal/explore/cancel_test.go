package explore

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"waitfree/internal/consensus"
	"waitfree/internal/types"
)

// proposalScripts builds one single-Propose script per process.
func proposalScripts(proposals []int) [][]types.Invocation {
	scripts := make([][]types.Invocation, len(proposals))
	for p, v := range proposals {
		scripts[p] = []types.Invocation{types.Propose(v)}
	}
	return scripts
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base, failing the test if it does not within two seconds. Exploration
// workers and the supervisor must all be joined by the time
// ConsensusKContext returns, so any surplus is a leak.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
}

// TestConsensusCancellation cancels a long exploration from its own
// progress callback and checks the cancellation contract: the engine
// returns context.Canceled promptly (within one counter-flush, far under a
// progress tick), every worker goroutine exits, and the final Stats
// snapshot — published after the workers stop — is internally consistent.
func TestConsensusCancellation(t *testing.T) {
	// Unmemoized, this instance takes seconds over 32 trees, so the first
	// 1ms progress tick always lands mid-run.
	im := consensus.Sticky(5)
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var last Stats
		var cancelled time.Time
		opts := Options{
			Parallelism:      workers,
			ProgressInterval: time.Millisecond,
			OnProgress: func(s Stats) {
				// Called from the supervisor goroutine; the final
				// snapshot is published before ConsensusKContext returns,
				// so the main goroutine reads `last` happens-after.
				last = s
				if cancelled.IsZero() {
					cancelled = time.Now()
					cancel()
				}
			},
		}
		rep, err := ConsensusKContext(ctx, im, 2, opts)
		returned := time.Now()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// A cancelled run returns a partial report carrying ONLY the
		// resumable checkpoint and the engine stats — never verdicts.
		if rep == nil || rep.Checkpoint == nil {
			t.Fatalf("workers=%d: cancelled run returned no checkpoint (rep=%v)", workers, rep)
		}
		if rep.Roots != 0 || rep.Agreement || rep.Validity || rep.WaitFree {
			t.Errorf("workers=%d: partial report carries verdict fields: %s", workers, rep.Summary())
		}
		if cp := rep.Checkpoint; cp.Impl != im.Name || cp.Remaining() <= 0 {
			t.Errorf("workers=%d: checkpoint %v inconsistent for a mid-run cancel", workers, cp)
		}
		if lat := returned.Sub(cancelled); lat > 500*time.Millisecond {
			t.Errorf("workers=%d: cancel-to-return latency %v", workers, lat)
		}
		waitForGoroutines(t, base)

		// Partial-progress consistency of the final snapshot.
		if last.Nodes == 0 {
			t.Errorf("workers=%d: final snapshot has no nodes", workers)
		}
		if last.Leaves > last.Nodes {
			t.Errorf("workers=%d: leaves %d > nodes %d", workers, last.Leaves, last.Nodes)
		}
		var sum int64
		for _, n := range last.WorkerNodes {
			sum += n
		}
		if sum != last.Nodes {
			t.Errorf("workers=%d: per-worker nodes sum %d != total %d", workers, sum, last.Nodes)
		}
		if last.TreesDone > last.TreesTotal {
			t.Errorf("workers=%d: trees done %d > total %d", workers, last.TreesDone, last.TreesTotal)
		}
		if last.Elapsed <= 0 {
			t.Errorf("workers=%d: non-positive elapsed %v", workers, last.Elapsed)
		}
	}
}

// TestConsensusPreCancelled checks the degenerate case: an already-dead
// context returns before any worker explores a tree.
func TestConsensusPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ConsensusKContext(ctx, consensus.TAS2(), 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConsensusDeadline checks the partial-coverage contract for wall-clock
// budgets: deadline expiry mid-run is NOT an error — it degrades to a
// report with Partial set, a Coverage block naming the deadline, and a
// resumable checkpoint (explicit cancellation stays the hard error path,
// see TestConsensusCancellation).
func TestConsensusDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	rep, err := ConsensusKContext(ctx, consensus.CASRegister3(), 2, Options{})
	if err != nil {
		t.Fatalf("err = %v, want nil (deadline degrades to a partial report)", err)
	}
	if rep == nil || !rep.Partial {
		t.Fatalf("report = %+v, want Partial", rep)
	}
	if rep.OK() {
		t.Errorf("partial report claims OK: %s", rep.Summary())
	}
	if rep.Coverage == nil || rep.Coverage.Reason != CoverageDeadline {
		t.Fatalf("coverage = %+v, want reason %q", rep.Coverage, CoverageDeadline)
	}
	if rep.Coverage.TreesDone >= rep.Coverage.TreesTotal {
		t.Errorf("coverage %v claims all trees done on a 2ms budget", rep.Coverage)
	}
	if rep.Checkpoint == nil {
		t.Fatal("partial report carries no checkpoint")
	}
	if got, want := rep.Checkpoint.Impl, consensus.CASRegister3().Name; got != want {
		t.Errorf("checkpoint impl = %q, want %q", got, want)
	}
}

// TestRunContextCancellation covers the single-tree entry point Run shares
// with Consensus: cancellation mid-DFS unwinds cleanly (no gray-mark
// leaks; see TestErrorPathClearsGrayMarks for the error-path analogue).
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	im := consensus.TAS2()
	scripts := proposalScripts([]int{0, 1})
	if _, err := RunContext(ctx, im, scripts, Options{Memoize: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOptionsValidate pins the up-front rejection of option combinations
// that previously failed deep inside the engine (or silently misbehaved).
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		bad  bool
	}{
		{"zero", Options{}, false},
		{"memoize", Options{Memoize: true}, false},
		{"history", Options{RecordHistory: true}, false},
		{"memoize+history", Options{Memoize: true, RecordHistory: true}, true},
		{"negative depth", Options{MaxDepth: -1}, true},
		{"negative parallelism", Options{Parallelism: -2}, true},
		{"negative interval", Options{ProgressInterval: -time.Second}, true},
		{"negative max nodes", Options{MaxNodes: -1}, true},
		{"negative stall after", Options{StallAfter: -time.Second}, true},
		{"negative checkpoint every", Options{CheckpointEvery: -time.Second}, true},
		{"checkpoint every without sink", Options{CheckpointEvery: time.Second}, true},
		{"checkpoint sink without every", Options{OnCheckpoint: func(*Checkpoint) {}}, true},
		{"checkpoint every with sink", Options{CheckpointEvery: time.Second, OnCheckpoint: func(*Checkpoint) {}}, false},
		{"budgets", Options{MaxNodes: 10, StallAfter: time.Second}, false},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if got := err != nil; got != c.bad {
			t.Errorf("%s: Validate() = %v, want bad=%v", c.name, err, c.bad)
		}
		if err != nil && !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: error %v does not wrap ErrBadOptions", c.name, err)
		}
	}
	// The engine entry points must report the same sentinel.
	im := consensus.TAS2()
	if _, err := ConsensusKContext(context.Background(), im, 2, Options{MaxDepth: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Consensus: err = %v, want ErrBadOptions", err)
	}
	scripts := proposalScripts([]int{0, 1})
	if _, err := RunContext(context.Background(), im, scripts, Options{Memoize: true, RecordHistory: true}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Run: err = %v, want ErrBadOptions", err)
	}
}
