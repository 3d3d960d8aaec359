package explore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"waitfree/internal/consensus"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// TestConsensusMaxNodesPartial checks the node-budget arm of the
// partial-coverage contract: a run stopped by Options.MaxNodes returns a
// Partial report (nil error) whose checkpoint resumes — without the
// budget — to a report deep-equal to an uninterrupted run's.
func TestConsensusMaxNodesPartial(t *testing.T) {
	im := consensus.CASRegister3()
	base := Options{Memoize: true, Parallelism: 1}

	// MaxNodes bounds configurations the engine ENTERS; memo hits replay
	// whole subtrees without entering them, so the budget must sit under
	// the memoized run's ~1.6k entered configs, not its ~150k semantic
	// node count.
	budgeted := base
	budgeted.MaxNodes = 500
	rep, err := ConsensusKContext(context.Background(), im, 2, budgeted)
	if err != nil {
		t.Fatalf("err = %v, want nil (budget stop degrades to a partial report)", err)
	}
	if !rep.Partial || rep.OK() {
		t.Fatalf("report not flagged partial: %s", rep.Summary())
	}
	if rep.Coverage == nil || rep.Coverage.Reason != CoverageNodeBudget {
		t.Fatalf("coverage = %+v, want reason %q", rep.Coverage, CoverageNodeBudget)
	}
	// The budget is soft: the overshoot past MaxNodes is bounded by
	// workers*flushEvery.
	if rep.Coverage.Nodes < budgeted.MaxNodes || rep.Coverage.Nodes > budgeted.MaxNodes+flushEvery {
		t.Errorf("nodes explored = %d, want within [%d, %d]", rep.Coverage.Nodes, budgeted.MaxNodes, budgeted.MaxNodes+flushEvery)
	}
	if rep.Coverage.TreesMerged > rep.Coverage.TreesDone || rep.Coverage.TreesDone >= rep.Coverage.TreesTotal {
		t.Errorf("coverage accounting inconsistent: %v", rep.Coverage)
	}
	if rep.Checkpoint == nil {
		t.Fatal("partial report carries no checkpoint")
	}
	if len(rep.Checkpoint.Trees) < rep.Coverage.TreesMerged {
		t.Errorf("checkpoint has %d trees, fewer than the %d merged", len(rep.Checkpoint.Trees), rep.Coverage.TreesMerged)
	}

	resumeOpts := base
	resumeOpts.ResumeFrom = rep.Checkpoint
	resumed, err := ConsensusKContext(context.Background(), im, 2, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := ConsensusKContext(context.Background(), im, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStats(resumed), stripStats(uninterrupted)) {
		t.Errorf("resumed report differs from uninterrupted run\nresumed:       %+v\nuninterrupted: %+v",
			resumed, uninterrupted)
	}
}

// TestConsensusAutosave checks Options.CheckpointEvery/OnCheckpoint: the
// supervisor publishes checkpoints while the run is in flight, each one a
// valid resume point, and the run's own report is untouched by the
// autosaving.
func TestConsensusAutosave(t *testing.T) {
	im := consensus.CASRegister3()
	var saves int
	var last *Checkpoint
	opts := Options{
		// Unmemoized, so the run takes ~130ms on one core (memoized it
		// takes ~3ms, too close to the save interval to be sure of a
		// mid-run save). 1ms against that guarantees mid-run saves;
		// OnCheckpoint is called from the supervisor goroutine, which is
		// joined before ConsensusKContext returns, so reading saves/last
		// below is safe.
		Parallelism:     1,
		CheckpointEvery: time.Millisecond,
		OnCheckpoint: func(cp *Checkpoint) {
			saves++
			last = cp
		},
	}
	rep, err := ConsensusKContext(context.Background(), im, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial || !rep.OK() {
		t.Fatalf("autosaving changed the verdict: %s", rep.Summary())
	}
	if saves == 0 || last == nil {
		t.Fatal("no autosave was published during a ~200ms run")
	}
	if last.Impl != im.Name || len(last.Trees) > last.Roots {
		t.Fatalf("autosaved checkpoint malformed: %v", last)
	}

	// The last mid-run snapshot must be a sound resume point.
	resumed, err := ConsensusKContext(context.Background(), im, 2, Options{ResumeFrom: last})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ConsensusKContext(context.Background(), im, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStats(resumed), stripStats(plain)) {
		t.Errorf("resume from autosaved checkpoint differs from uninterrupted run\nresumed: %+v\nplain:   %+v",
			resumed, plain)
	}
}

// TestSupervisorOneGoroutine pins that one supervisor goroutine serves
// both hooks of a run that sets OnProgress and autosave. Both callbacks
// write one plain counter without synchronization, so under -race the test
// fails if the hooks ever run on different goroutines unordered. It also
// counts the goroutines alive during the hooks: the worker and the
// supervisor, nothing else.
func TestSupervisorOneGoroutine(t *testing.T) {
	im := consensus.CASRegister3()
	before := runtime.NumGoroutine()
	var calls, progress, saves, extra int
	hook := func() {
		calls++
		extra = max(extra, runtime.NumGoroutine()-before)
	}
	opts := Options{
		// Unmemoized, so the run takes ~100ms, against 1ms ticks.
		Parallelism:      1,
		ProgressInterval: time.Millisecond,
		OnProgress: func(Stats) {
			hook()
			progress++
		},
		CheckpointEvery: time.Millisecond,
		OnCheckpoint: func(*Checkpoint) {
			hook()
			saves++
		},
	}
	rep, err := ConsensusKContext(context.Background(), im, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("supervised run changed the verdict: %s", rep.Summary())
	}
	if progress < 2 || saves == 0 || calls != progress+saves {
		t.Fatalf("hooks fired %d progress and %d autosave times (%d calls), want at least one mid-run of each",
			progress, saves, calls)
	}
	if extra > 2 {
		t.Errorf("%d goroutines beyond the caller's during the run, want the worker and the supervisor only", extra)
	}
}

// TestConsensusHeartbeats checks the liveness records on a normal run's
// final snapshot: one per worker, all idle once the engine has joined
// them.
func TestConsensusHeartbeats(t *testing.T) {
	rep, err := ConsensusKContext(context.Background(), consensus.TAS2(), 2, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Stats.Heartbeats); got != rep.Stats.Workers {
		t.Fatalf("heartbeats = %d, want one per worker (%d)", got, rep.Stats.Workers)
	}
	for _, hb := range rep.Stats.Heartbeats {
		if hb.Mask != -1 {
			t.Errorf("worker %d still claims mask %d after join", hb.Worker, hb.Mask)
		}
		if hb.SinceProgress < 0 {
			t.Errorf("worker %d has negative idle %v", hb.Worker, hb.SinceProgress)
		}
	}
}

// wedgeImpl builds a 1-process consensus implementation whose object spec
// blocks on the returned channel at its first application: from the
// engine's point of view a worker wedged inside user code that never
// polls the context. Close the channel to let the goroutine unwind.
func wedgeImpl() (*program.Implementation, chan struct{}) {
	block := make(chan struct{})
	spec := &types.Spec{
		Name:          "wedge",
		Ports:         1,
		Deterministic: true,
		Alphabet:      []types.Invocation{types.Inv(types.OpRead, 0, 0)},
		Step: func(q types.State, port int, inv types.Invocation) []types.Transition {
			<-block
			return []types.Transition{{Next: q, Resp: types.OK}}
		},
	}
	machine := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return inv.A },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			if resp.Label == types.LabelOK {
				return program.ReturnAction(types.ValOf(state.(int)), nil), state
			}
			return program.InvokeAction(0, types.Inv(types.OpRead, 0, 0)), state
		},
	}
	im := &program.Implementation{
		Name:     "wedge-consensus",
		Target:   types.Consensus(1),
		Procs:    1,
		Objects:  []program.ObjectDecl{{Name: "w", Spec: spec, Init: 0, PortOf: program.AllPorts(1)}},
		Machines: []program.Machine{machine},
	}
	return im, block
}

// TestConsensusStallWatchdog wedges a worker inside a Spec.Step that
// never returns and checks the watchdog contract: the run comes back
// (instead of hanging forever) with a Partial report, Coverage reason
// "stall", and a *StallError identifying the worker, its tree, and the
// fact that its goroutine had to be abandoned.
func TestConsensusStallWatchdog(t *testing.T) {
	im, block := wedgeImpl()
	defer close(block) // let the abandoned goroutine reclaim itself
	opts := Options{
		Parallelism: 1,
		StallAfter:  30 * time.Millisecond,
	}
	start := time.Now()
	rep, err := ConsensusKContext(context.Background(), im, 2, opts)
	elapsed := time.Since(start)

	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Worker != 0 || se.Mask != 0 {
		t.Errorf("stall = %+v, want worker 0 on mask 0", se)
	}
	if se.Idle < opts.StallAfter {
		t.Errorf("stall flagged after only %v idle, watchdog armed at %v", se.Idle, opts.StallAfter)
	}
	if !se.Abandoned {
		t.Error("a worker wedged inside Step must be reported as abandoned")
	}
	if len(se.Proposals) != 1 {
		t.Errorf("stall proposals = %v, want the 1-process vector", se.Proposals)
	}
	if se.Error() == "" {
		t.Error("empty StallError message")
	}
	if rep == nil || !rep.Partial || rep.Coverage == nil || rep.Coverage.Reason != CoverageStall {
		t.Fatalf("report = %+v, want Partial with coverage reason %q", rep, CoverageStall)
	}
	if rep.Checkpoint == nil {
		t.Error("stalled run carries no checkpoint")
	}
	// Watchdog latency: ~StallAfter detection + a grace period capped well
	// under the 2s abandonment clamp. 1.5s leaves slack on loaded CI.
	if elapsed > 1500*time.Millisecond {
		t.Errorf("stalled run took %v to come back", elapsed)
	}
}
