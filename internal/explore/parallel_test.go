package explore

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// stripStats clears the observational engine snapshot before a deep-equal
// comparison: Stats carries wall-clock and per-worker load figures that
// legitimately differ between runs, while every other report field is a
// pure function of the implementation.
func stripStats(r *ConsensusReport) *ConsensusReport {
	if r != nil {
		r.Stats = nil
	}
	return r
}

// TestConsensusParallelMatchesSequential is the parity guarantee of
// Options.Parallelism: on every corpus protocol — correct or violating,
// memoized or not — the parallel report must be deep-equal to the
// sequential one, including the Nodes/Leaves/MemoHits accounting. Memo
// contents are per tree, while the storage is per worker: each worker
// resets its one explorer for every tree it claims, so the counts are a
// pure function of the implementation.
func TestConsensusParallelMatchesSequential(t *testing.T) {
	for _, im := range consensus.Corpus() {
		for _, memoize := range []bool{false, true} {
			seq, seqErr := ConsensusKContext(context.Background(), im, 2, Options{Memoize: memoize, Parallelism: 1})
			stripStats(seq)
			for _, workers := range []int{0, 2, 4} {
				par, parErr := ConsensusKContext(context.Background(), im, 2, Options{Memoize: memoize, Parallelism: workers})
				stripStats(par)
				if (seqErr == nil) != (parErr == nil) {
					t.Fatalf("%s memoize=%v workers=%d: error mismatch: %v vs %v",
						im.Name, memoize, workers, seqErr, parErr)
				}
				if seqErr != nil {
					continue
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("%s memoize=%v workers=%d: report mismatch\nseq: %+v\npar: %+v",
						im.Name, memoize, workers, seq, par)
				}
			}
		}
	}
}

// engineCounters are the Stats fields that are a pure function of the
// trees explored: everything but timing, load spread and liveness.
type engineCounters struct {
	Nodes, Leaves, MemoHits     int64
	TransHits, TransMisses      int64
	StepHits, StepMisses        int64
	InternedObjs, InternedProcs int64
	MemoEvictions, MemoSpilled  int64
}

func countersOf(s *Stats) engineCounters {
	return engineCounters{
		Nodes: s.Nodes, Leaves: s.Leaves, MemoHits: s.MemoHits,
		TransHits: s.TransHits, TransMisses: s.TransMisses,
		StepHits: s.StepHits, StepMisses: s.StepMisses,
		InternedObjs: s.InternedObjs, InternedProcs: s.InternedProcs,
		MemoEvictions: s.MemoEvictions, MemoSpilled: s.MemoSpilled,
	}
}

// TestEngineCountersMatchAcrossParallelism is the leak detector of the
// worker-owned explorers. A ConsensusKContext worker resets one explorer
// for every tree it claims, and which trees share an explorer changes with
// Parallelism, so anything a reset left behind — an interned state, a
// cache row, a memo or spill entry, a counter — would show in the
// deterministic engine counters. On every corpus protocol the check
// verifies, memo off, on, and budgeted with a spill tier, fault-free,
// crash-stop and crash-recovery, the counters must be equal at 1, 2 and 4
// workers, and equal to the sum of the trees explored one by one, each
// with a fresh explorer. -short skips the runs of over a million nodes.
func TestEngineCountersMatchAcrossParallelism(t *testing.T) {
	models := map[string]faults.Model{
		"fault-free":     {},
		"crash-stop":     {Mode: faults.CrashStop, MaxCrashes: 1},
		"crash-recovery": {Mode: faults.CrashRecovery, MaxCrashes: 1, MaxRecoveries: 1},
	}
	memos := map[string]Options{
		"memo-off":    {},
		"memo-on":     {Memoize: true},
		"memo-budget": {Memoize: true, MemoBudget: 8},
	}
	for _, im := range consensus.Corpus() {
		for mname, model := range models {
			for oname, base := range memos {
				opts := base
				opts.Faults = model
				if opts.MemoBudget > 0 {
					opts.MemoSpillDir = t.TempDir()
				}
				name := im.Name + "/" + mname + "/" + oname
				opts.Parallelism = 1
				seq, err := ConsensusKContext(context.Background(), im, 2, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !seq.OK() {
					continue // a violation cuts the run short at a parallelism-dependent point
				}
				if testing.Short() && seq.Nodes > 1e6 {
					continue // unmemoized crash-recovery CASRegister3: 22M nodes a run
				}
				roots := 1 << im.Procs
				ctr := newCounters(1, roots)
				for mask := 0; mask < roots; mask++ {
					if out := exploreTree(context.Background(), new(explorer), im, 2, mask, opts, ctr, 0); out.err != nil {
						t.Fatalf("%s: mask %d: %v", name, mask, out.err)
					}
				}
				fresh := ctr.snapshot()
				want := countersOf(&fresh)
				if got := countersOf(seq.Stats); got != want {
					t.Errorf("%s workers=1: counters %+v, fresh explorers %+v", name, got, want)
				}
				for _, workers := range []int{2, 4} {
					opts.Parallelism = workers
					par, err := ConsensusKContext(context.Background(), im, 2, opts)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					if got := countersOf(par.Stats); got != want {
						t.Errorf("%s workers=%d: counters %+v, fresh explorers %+v", name, workers, got, want)
					}
				}
			}
		}
	}
}

// TestConsensusKParallelMatchesSequential covers the multi-valued trees
// (k^n roots) the binary test misses.
func TestConsensusKParallelMatchesSequential(t *testing.T) {
	im := consensus.CAS(2)
	seq, err := ConsensusKContext(context.Background(), im, 3, Options{Memoize: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ConsensusKContext(context.Background(), im, 3, Options{Memoize: true, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStats(seq), stripStats(par)) {
		t.Errorf("k=3 report mismatch\nseq: %+v\npar: %+v", seq, par)
	}
}

// faultyAfterTAS accesses its test-and-set once, then issues an invocation
// the spec rejects, making Spec.Apply fail mid-exploration.
var faultyAfterTAS = program.FuncMachine{
	StartFn: func(inv types.Invocation, _ any) any { return 0 },
	NextFn: func(state any, resp types.Response) (program.Action, any) {
		if state.(int) == 0 {
			return program.InvokeAction(0, types.TAS), 1
		}
		return program.InvokeAction(0, types.Invocation{Op: "bogus"}), 2
	},
}

func faultyImpl() *program.Implementation {
	return &program.Implementation{
		Name:  "faulty",
		Procs: 2,
		Objects: []program.ObjectDecl{
			{Name: "t", Spec: types.TestAndSet(2), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []program.Machine{faultyAfterTAS, faultyAfterTAS},
	}
}

// TestErrorPathClearsGrayMarks is the regression test for the on-stack
// memo-mark leak: when Spec.Apply fails deep in the tree, the error
// unwinds the whole DFS stack, and every ancestor must remove its gray
// mark on the way out. (A surviving mark would make any later exploration
// that reuses the table report a phantom cycle.)
func TestErrorPathClearsGrayMarks(t *testing.T) {
	im := faultyImpl()
	scripts := [][]types.Invocation{
		{types.Propose(0)},
		{types.Propose(1)},
	}
	e, _, err := engineExplorer(im, scripts, Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.explore(); err == nil {
		t.Fatal("faulty implementation explored without error")
	}
	if gray := e.memo.grayKeys(); len(gray) != 0 {
		t.Errorf("%d gray marks survived the error unwind", len(gray))
	}
}

// TestConsensusTreeCeiling pins the MaxTrees refusal: runs just above the
// ceiling, far above it, and past the int range of k^n all fail with
// ErrBadScripts before any tree is planned or allocated, while Trees
// admits the ceiling itself.
func TestConsensusTreeCeiling(t *testing.T) {
	for _, tc := range []struct {
		procs, k int
	}{
		{21, 2},       // 2^21 trees
		{2, 1025},     // 1025^2 = 1,050,625 trees
		{2, 1 << 40},  // k alone exceeds the ceiling
		{64, 2},       // 2^64 trees: wraps an unchecked int product to 0
		{100, 1 << 9}, // wraps too, to a different value
	} {
		_, err := ConsensusKContext(context.Background(), consensus.CAS(tc.procs), tc.k, Options{Symmetry: SymmetryAuto})
		if !errors.Is(err, ErrBadScripts) {
			t.Errorf("procs=%d k=%d: err = %v, want ErrBadScripts", tc.procs, tc.k, err)
		}
	}
	// The ceiling itself is admitted.
	for _, tc := range []struct{ procs, k int }{{20, 2}, {2, 1024}} {
		if trees, err := Trees(tc.procs, tc.k); err != nil || trees != MaxTrees {
			t.Errorf("Trees(%d, %d) = %d, %v; want %d", tc.procs, tc.k, trees, err, MaxTrees)
		}
	}
}
