package explore

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// mustWalk walks im under s and fails the test on any error.
func mustWalk(t *testing.T, im *program.Implementation, scripts [][]types.Invocation, s Schedule) *Walked {
	t.Helper()
	w, err := Walk(im, scripts, s)
	if err != nil {
		t.Fatalf("%s %+v: %v", im.Name, s, err)
	}
	return w
}

// TestWalkConsensusManySeeds samples seeded walks of the two-process
// protocols: every walk ends with both processes agreeing on a proposal.
func TestWalkConsensusManySeeds(t *testing.T) {
	for _, mk := range []func() *program.Implementation{
		consensus.TAS2, consensus.Queue2, consensus.FAA2, consensus.WeakLeader2,
	} {
		im := mk()
		for seed := int64(0); seed < 40; seed++ {
			w := mustWalk(t, im, proposalScripts([]int{0, 1}), Schedule{Seed: seed})
			if d0, d1 := w.Responses[0][0], w.Responses[1][0]; d0 != d1 {
				t.Fatalf("%s seed %d: disagreement %v vs %v", im.Name, seed, d0, d1)
			}
		}
	}
}

// TestWalkConsensusRandomInterleavings: TAS2 agrees on a valid proposal
// under fifty random interleavings, whichever process proposes which value.
func TestWalkConsensusRandomInterleavings(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		props := []int{int(seed % 2), int(seed/2) % 2}
		w := mustWalk(t, consensus.TAS2(), proposalScripts(props), Schedule{Seed: seed})
		d0, d1 := w.Responses[0][0], w.Responses[1][0]
		if d0 != d1 {
			t.Fatalf("seed %d: disagreement %v vs %v", seed, d0, d1)
		}
		if d0.Val != props[0] && d0.Val != props[1] {
			t.Fatalf("seed %d: decision %v is nobody's proposal %v", seed, d0, props)
		}
	}
}

// TestWalkHistoryLinearizableAgainstConsensusSpec: the history every walk
// records linearizes against the consensus type.
func TestWalkHistoryLinearizableAgainstConsensusSpec(t *testing.T) {
	for _, mk := range []func() *program.Implementation{consensus.Queue2, consensus.TAS2} {
		im := mk()
		for seed := int64(0); seed < 20; seed++ {
			w := mustWalk(t, im, proposalScripts([]int{0, 1}), Schedule{Seed: seed})
			if _, err := linearize.Check(types.Consensus(2), types.ConsensusUndecided, w.History); err != nil {
				t.Fatalf("%s seed %d: %v\n%v", im.Name, seed, err, w.History)
			}
		}
	}
}

// TestWalkSeedReproducible: a walk is a pure function of its schedule —
// the same seed reproduces the path, the responses and the history.
func TestWalkSeedReproducible(t *testing.T) {
	seen := make(map[string]bool)
	for seed := int64(0); seed < 10; seed++ {
		s := Schedule{Seed: seed}
		a := mustWalk(t, consensus.Queue2(), proposalScripts([]int{0, 1}), s)
		b := mustWalk(t, consensus.Queue2(), proposalScripts([]int{0, 1}), s)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: walks differ:\n%s\nvs\n%s", seed, FormatSchedule(a.Schedule), FormatSchedule(b.Schedule))
		}
		seen[FormatSchedule(a.Schedule)] = true
	}
	if len(seen) < 2 {
		t.Errorf("ten seeds walked %d distinct path(s)", len(seen))
	}
}

// deadBitImpl reads one dead one-use bit, whose read may return 0 or 1.
func deadBitImpl() *program.Implementation {
	m := program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return 0 },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			if state.(int) == 0 {
				return program.InvokeAction(0, types.Read), 1
			}
			return program.ReturnAction(resp, nil), state
		},
	}
	return &program.Implementation{
		Name:   "dead-bit",
		Target: types.OneUseBit(),
		Procs:  1,
		Objects: []program.ObjectDecl{
			{Name: "b", Spec: types.OneUseBit(), Init: types.OneUseDead, PortOf: []int{1}},
		},
		Machines: []program.Machine{m},
	}
}

// TestWalkSeededNondeterministicChoice: the seed also picks among a
// nondeterministic object's transitions, reproducibly, and reaches each
// of them over a range of seeds.
func TestWalkSeededNondeterministicChoice(t *testing.T) {
	got := make(map[types.Response]bool)
	for seed := int64(0); seed < 20; seed++ {
		s := Schedule{Seed: seed}
		a := mustWalk(t, deadBitImpl(), [][]types.Invocation{{types.Read}}, s)
		b := mustWalk(t, deadBitImpl(), [][]types.Invocation{{types.Read}}, s)
		if a.Responses[0][0] != b.Responses[0][0] {
			t.Fatalf("seed %d: %v then %v", seed, a.Responses[0][0], b.Responses[0][0])
		}
		got[a.Responses[0][0]] = true
	}
	if !got[types.ValOf(0)] || !got[types.ValOf(1)] {
		t.Errorf("twenty seeds read only %v", got)
	}
}

// TestWalkNondeterministicObjectsAgree: the noisy-sticky protocol, whose
// object answers unstuck reads adversarially, agrees on a valid proposal
// on every seeded walk.
func TestWalkNondeterministicObjectsAgree(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		w := mustWalk(t, consensus.NoisySticky2(), proposalScripts([]int{0, 1}), Schedule{Seed: seed})
		d0, d1 := w.Responses[0][0], w.Responses[1][0]
		if d0 != d1 {
			t.Fatalf("seed %d: disagreement %v vs %v", seed, d0, d1)
		}
		if d0.Val != 0 && d0.Val != 1 {
			t.Fatalf("seed %d: invalid decision %v", seed, d0)
		}
	}
}

// TestWalkNondeterministicRunReproducible: a protocol over a
// nondeterministic object replays exactly — responses, path and
// history — from the same seed.
func TestWalkNondeterministicRunReproducible(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := Schedule{Seed: seed}
		a := mustWalk(t, consensus.NoisySticky2(), proposalScripts([]int{0, 1}), s)
		b := mustWalk(t, consensus.NoisySticky2(), proposalScripts([]int{0, 1}), s)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: walks differ:\n%s\nvs\n%s", seed, FormatSchedule(a.Schedule), FormatSchedule(b.Schedule))
		}
	}
}

// TestWalkCrashToleranceWaitFreedom crashes process 0 after each possible
// number of accesses: process 1 always decides validly, and the history
// stays well formed with the crashed operation pending.
func TestWalkCrashToleranceWaitFreedom(t *testing.T) {
	for crashAfter := 0; crashAfter <= 4; crashAfter++ {
		for seed := int64(0); seed < 5; seed++ {
			s := Schedule{Seed: seed, CrashAfter: map[int]int{0: crashAfter}}
			w := mustWalk(t, consensus.TAS2(), proposalScripts([]int{1, 0}), s)
			// Every TAS2 path takes at least 2 accesses (announce + tas),
			// so a budget below 2 always crashes process 0.
			if crashAfter < 2 && !w.Crashed[0] {
				t.Errorf("crashAfter=%d: process 0 did not crash", crashAfter)
			}
			if len(w.Responses[1]) != 1 {
				t.Fatalf("crashAfter=%d: survivor did not decide", crashAfter)
			}
			if d := w.Responses[1][0]; d.Val != 0 && d.Val != 1 {
				t.Fatalf("crashAfter=%d: invalid decision %v", crashAfter, d)
			}
			if err := w.History.Validate(); err != nil {
				t.Fatalf("crashAfter=%d: malformed history: %v", crashAfter, err)
			}
		}
	}
}

// TestWalkCrashAtStepZero: a process crashed before its first access
// touches no object, and the other process decides its own proposal.
func TestWalkCrashAtStepZero(t *testing.T) {
	w := mustWalk(t, consensus.TAS2(), proposalScripts([]int{0, 1}), Schedule{CrashAfter: map[int]int{0: 0}})
	if !w.Crashed[0] || w.Crashed[1] {
		t.Fatalf("crashed = %v, want exactly process 0", w.Crashed)
	}
	if len(w.Responses[0]) != 0 {
		t.Errorf("crashed process produced responses %v", w.Responses[0])
	}
	if len(w.Responses[1]) != 1 || w.Responses[1][0] != types.ValOf(1) {
		t.Errorf("survivor decided %v, want its own proposal val(1)", w.Responses[1])
	}
	if w.Schedule[0] != (StepRecord{Proc: 0, Obj: -1, Crash: true}) {
		t.Errorf("schedule starts %v, want p0:CRASH", w.Schedule[0])
	}
	for _, st := range w.Schedule[1:] {
		if st.Proc == 0 {
			t.Errorf("crashed process stepped: %v", st)
		}
	}
}

// TestWalkCrashEveryProcess crashes the whole run at step zero: no object
// is accessed, every process is crashed, nothing is decided.
func TestWalkCrashEveryProcess(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		s := Schedule{Seed: seed, CrashAfter: map[int]int{0: 0, 1: 0}}
		w := mustWalk(t, consensus.Queue2(), proposalScripts([]int{0, 1}), s)
		for p, crashed := range w.Crashed {
			if !crashed || len(w.Responses[p]) != 0 {
				t.Errorf("process %d: crashed=%v responses=%v", p, crashed, w.Responses[p])
			}
		}
		if w.Depth != 0 {
			t.Errorf("depth = %d, want 0", w.Depth)
		}
	}
}

// TestWalkCrashAfterLimits: with several processes crashing at different
// points, each crashed process made exactly its limit of accesses, and
// the others finished.
func TestWalkCrashAfterLimits(t *testing.T) {
	im := consensus.Sticky(4)
	limits := map[int]int{0: 0, 2: 1}
	for seed := int64(0); seed < 10; seed++ {
		w := mustWalk(t, im, proposalScripts([]int{0, 1, 1, 0}), Schedule{Seed: seed, CrashAfter: limits})
		steps := make([]int, im.Procs)
		for _, st := range w.Schedule {
			if !st.Crash {
				steps[st.Proc]++
			}
		}
		for p := 0; p < im.Procs; p++ {
			limit, crashes := limits[p]
			switch {
			case crashes && w.Crashed[p] && steps[p] != limit:
				t.Errorf("seed %d: p%d crashed after %d accesses, want %d", seed, p, steps[p], limit)
			case crashes && !w.Crashed[p] && steps[p] > limit:
				t.Errorf("seed %d: p%d finished with %d accesses past its limit %d", seed, p, steps[p], limit)
			case !crashes && (w.Crashed[p] || len(w.Responses[p]) != 1):
				t.Errorf("seed %d: p%d crashed=%v responses=%v", seed, p, w.Crashed[p], w.Responses[p])
			}
		}
	}
}

// readerImpl gives each of procs processes a machine that reads a shared
// register reads times per operation, then decides val(0).
func readerImpl(procs, reads int) *program.Implementation {
	m := program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return 0 },
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			if n := state.(int); n < reads {
				return program.InvokeAction(0, types.Read), n + 1
			}
			return program.ReturnAction(types.ValOf(0), nil), state
		},
	}
	ports := make([]int, procs)
	machines := make([]program.Machine, procs)
	for p := range ports {
		ports[p], machines[p] = p+1, m
	}
	return &program.Implementation{
		Name:   "readers",
		Target: types.Consensus(procs),
		Procs:  procs,
		Objects: []program.ObjectDecl{
			{Name: "r", Spec: types.Register(procs, 2), Init: 0, PortOf: ports},
		},
		Machines: machines,
	}
}

// accessCounts counts each process's object accesses on a walked path,
// leaving out CRASH and RECOVER records.
func accessCounts(w *Walked) []int {
	n := make([]int, len(w.Crashed))
	for _, st := range w.Schedule {
		if !st.Crash && !st.Recover {
			n[st.Proc]++
		}
	}
	return n
}

// TestWalkCrashAfterZeroNoAccess: a process with a zero crash budget is
// crashed before it takes any access, whichever process it is.
func TestWalkCrashAfterZeroNoAccess(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		w := mustWalk(t, readerImpl(4, 2), proposalScripts([]int{0, 0, 0, 0}), Schedule{Seed: seed, CrashAfter: map[int]int{3: 0}})
		if got := accessCounts(w); !w.Crashed[3] || got[3] != 0 {
			t.Errorf("seed %d: p3 crashed=%v after %d accesses, want crashed after 0", seed, w.Crashed[3], got[3])
		}
	}
}

// TestWalkCrashAfterOneAccess: a process crashed after one access takes
// exactly one, and the healthy process takes all of its five.
func TestWalkCrashAfterOneAccess(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w := mustWalk(t, readerImpl(2, 5), proposalScripts([]int{0, 0}), Schedule{Seed: seed, CrashAfter: map[int]int{0: 1}})
		got := accessCounts(w)
		if !w.Crashed[0] || got[0] != 1 {
			t.Errorf("seed %d: crashed process took %d accesses (crashed=%v), want 1", seed, got[0], w.Crashed[0])
		}
		if w.Crashed[1] || got[1] != 5 || len(w.Responses[1]) != 1 {
			t.Errorf("seed %d: healthy process took %d accesses, responses %v; want 5 and a decision", seed, got[1], w.Responses[1])
		}
	}
}

// TestWalkManyProcsWithCrashes: eight processes of thirty accesses each,
// two of them crashed at different points; the crashed ones stop at their
// limits and the other six finish.
func TestWalkManyProcsWithCrashes(t *testing.T) {
	const procs, accessesEach = 8, 30
	for _, seed := range []int64{42, 7, 0} {
		w := mustWalk(t, readerImpl(procs, accessesEach), proposalScripts(make([]int, procs)),
			Schedule{Seed: seed, CrashAfter: map[int]int{2: 3, 5: 0}})
		got := accessCounts(w)
		if got[2] != 3 || got[5] != 0 || !w.Crashed[2] || !w.Crashed[5] {
			t.Errorf("seed %d: crashed processes took %d and %d accesses, want 3 and 0", seed, got[2], got[5])
		}
		for _, p := range []int{0, 1, 3, 4, 6, 7} {
			if w.Crashed[p] || got[p] != accessesEach || len(w.Responses[p]) != 1 {
				t.Errorf("seed %d: p%d took %d accesses (crashed=%v), want %d", seed, p, got[p], w.Crashed[p], accessesEach)
			}
		}
	}
}

// TestWalkInterruptedOpStaysPending: an operation cut short by a crash
// stays pending in the history; every other operation completes.
func TestWalkInterruptedOpStaysPending(t *testing.T) {
	w := mustWalk(t, consensus.TAS2(), proposalScripts([]int{0, 1}), Schedule{CrashAfter: map[int]int{1: 1}})
	if !w.Crashed[1] {
		t.Fatal("process 1 did not crash")
	}
	for _, op := range w.History {
		if op.Complete() == (op.Proc == 1) {
			t.Errorf("op %+v: complete=%v", op, op.Complete())
		}
	}
}

// twoOpImpl gives both processes a machine that decides its proposal
// after one test-and-set access.
func twoOpImpl() *program.Implementation {
	m := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return [2]int{0, inv.A} },
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			s := state.([2]int)
			if s[0] == 0 {
				return program.InvokeAction(0, types.TAS), [2]int{1, s[1]}
			}
			return program.ReturnAction(types.ValOf(s[1]), nil), state
		},
	}
	return &program.Implementation{
		Name:   "two-ops",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "t", Spec: types.TestAndSet(2), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []program.Machine{m, m},
	}
}

// TestWalkRecoveryFinishes: a process that crashes after every access and
// may recover once completes its first operation, is interrupted in its
// second, re-enters and re-runs it to completion. The interrupted attempt
// stays pending; the re-execution opens a fresh history entry.
func TestWalkRecoveryFinishes(t *testing.T) {
	scripts := [][]types.Invocation{{types.Propose(0), types.Propose(1)}, {}}
	s := Schedule{CrashAfter: map[int]int{0: 1}, Recoveries: map[int]int{0: 1}}
	w := mustWalk(t, twoOpImpl(), scripts, s)
	if w.Crashed[0] || w.Crashed[1] {
		t.Fatalf("crashed = %v, want none (the crash was recovered)", w.Crashed)
	}
	if !reflect.DeepEqual(w.Recoveries, []int{1, 0}) {
		t.Fatalf("recoveries = %v, want [1 0]", w.Recoveries)
	}
	if len(w.Responses[0]) != 2 {
		t.Fatalf("recovered process responded %v, want both operations decided", w.Responses[0])
	}
	var pending, complete int
	for _, op := range w.History {
		if op.End == hist.Pending {
			pending++
		} else {
			complete++
		}
	}
	if pending != 1 || complete != 2 {
		t.Errorf("history has %d pending / %d complete ops, want 1/2:\n%v", pending, complete, w.History)
	}
	want := "p0:obj0.tas->val(0)\np0:CRASH\np0:RECOVER\np0:obj0.tas->val(1)"
	if got := FormatSchedule(w.Schedule); got != want {
		t.Errorf("schedule:\n%s\nwant\n%s", got, want)
	}
}

// TestWalkRecoveryBudgetExhaustion: once the recovery budget runs out the
// crash is permanent, and the survivor still decides.
func TestWalkRecoveryBudgetExhaustion(t *testing.T) {
	// One access per attempt never completes TAS2's two-access winning
	// path, so process 0 burns both recoveries and stays down.
	s := Schedule{CrashAfter: map[int]int{0: 1}, Recoveries: map[int]int{0: 2}}
	w := mustWalk(t, consensus.TAS2(), proposalScripts([]int{0, 1}), s)
	if !w.Crashed[0] || w.Crashed[1] {
		t.Fatalf("crashed = %v, want exactly process 0", w.Crashed)
	}
	if w.Recoveries[0] != 2 {
		t.Errorf("recoveries[0] = %d, want the whole budget of 2", w.Recoveries[0])
	}
	if len(w.Responses[0]) != 0 {
		t.Errorf("crashed process produced responses %v", w.Responses[0])
	}
	if len(w.Responses[1]) != 1 || w.Responses[1][0] != types.ValOf(1) {
		t.Errorf("survivor decided %v, want its own proposal val(1)", w.Responses[1])
	}
}

// TestWalkRecoveryResetsAccessCount: each recovery resets the access
// count, so every attempt makes exactly CrashAfter accesses; after the
// budget of two recoveries the third crash is permanent, and a process
// absent from CrashAfter never crashes.
func TestWalkRecoveryResetsAccessCount(t *testing.T) {
	s := Schedule{CrashAfter: map[int]int{0: 2}, Recoveries: map[int]int{0: 2}}
	for seed := int64(0); seed < 5; seed++ {
		s.Seed = seed
		w := mustWalk(t, readerImpl(2, 5), proposalScripts([]int{0, 0}), s)
		if !w.Crashed[0] || w.Recoveries[0] != 2 {
			t.Fatalf("seed %d: p0 crashed=%v recoveries=%d, want a permanent crash after 2", seed, w.Crashed[0], w.Recoveries[0])
		}
		var attempts []int
		n := 0
		for _, st := range w.Schedule {
			switch {
			case st.Proc != 0 || st.Recover:
			case st.Crash:
				attempts, n = append(attempts, n), 0
			default:
				n++
			}
		}
		if !reflect.DeepEqual(attempts, []int{2, 2, 2}) {
			t.Errorf("seed %d: p0 made %v accesses between crashes, want [2 2 2]", seed, attempts)
		}
		if w.Crashed[1] || w.Recoveries[1] != 0 || len(w.Responses[1]) != 1 {
			t.Errorf("seed %d: unlisted p1 crashed=%v recoveries=%d responses=%v", seed, w.Crashed[1], w.Recoveries[1], w.Responses[1])
		}
	}
}

// TestWalkEmptyScript: a process with an empty script is done without a
// step, and the other runs alone.
func TestWalkEmptyScript(t *testing.T) {
	w := mustWalk(t, consensus.TAS2(), [][]types.Invocation{{}, {types.Propose(1)}}, Schedule{Seed: 5})
	if len(w.Responses[0]) != 0 {
		t.Errorf("empty script produced responses %v", w.Responses[0])
	}
	if len(w.Responses[1]) != 1 || w.Responses[1][0] != types.ValOf(1) {
		t.Errorf("process 1 decided %v, want val(1)", w.Responses[1])
	}
}

// TestWalkPanicRecovery: a panic in protocol code becomes a structured
// *faults.PanicError naming the stepping process, not a crashed caller.
func TestWalkPanicRecovery(t *testing.T) {
	im := &program.Implementation{
		Name:   "exploding",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "t", Spec: types.TestAndSet(2), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []program.Machine{explodingMachine, twoOpImpl().Machines[1]},
	}
	for seed := int64(0); seed < 4; seed++ {
		_, err := Walk(im, proposalScripts([]int{0, 1}), Schedule{Seed: seed})
		var pe *faults.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("seed %d: err = %v, want *faults.PanicError", seed, err)
		}
		if pe.Engine != "explore" || pe.Proc != 0 || pe.Value != "machine exploded" {
			t.Errorf("seed %d: panic %s/%d/%v, want explore/0/machine exploded", seed, pe.Engine, pe.Proc, pe.Value)
		}
		if !strings.Contains(pe.Context, "depth") {
			t.Errorf("seed %d: context %q lacks the configuration breadcrumb", seed, pe.Context)
		}
	}
}

// TestWalkBadScripts: a script count that does not match the processes is
// ErrBadScripts, and a walk past MaxDepth is a depth violation.
func TestWalkBadScripts(t *testing.T) {
	if _, err := Walk(consensus.TAS2(), nil, Schedule{}); !errors.Is(err, ErrBadScripts) {
		t.Errorf("nil scripts: err = %v, want ErrBadScripts", err)
	}
	_, err := Walk(consensus.TAS2(), proposalScripts([]int{0, 1}), Schedule{MaxDepth: 1})
	var v *Violation
	if !errors.As(err, &v) || v.Kind != KindDepthExceeded || len(v.Schedule) != 1 {
		t.Errorf("MaxDepth 1: err = %v, want a KindDepthExceeded violation after one access", err)
	}
}

// leafSet explores im under opts and returns the schedule of every leaf.
func leafSet(t *testing.T, im *program.Implementation, scripts [][]types.Invocation, opts Options) map[string]bool {
	t.Helper()
	leaves := make(map[string]bool)
	opts.OnLeaf = func(l *Leaf) error {
		leaves[FormatSchedule(l.Schedule())] = true
		return nil
	}
	res, err := RunContext(context.Background(), im, scripts, opts)
	if err != nil || res.Violation != nil {
		t.Fatalf("%s: %v %v", im.Name, err, res.Violation)
	}
	return leaves
}

// TestWalkLeavesAreTreeLeaves: every walk's path is a leaf of the tree
// Run explores with identical scripts and a matching fault model — crash
// points under crash-stop, crash-and-recover points under crash-recovery.
func TestWalkLeavesAreTreeLeaves(t *testing.T) {
	crashStop := faults.Model{MaxCrashes: 2}
	recovery := faults.Model{Mode: faults.CrashRecovery, MaxCrashes: 3, MaxRecoveries: 1}
	for _, mk := range []func() *program.Implementation{consensus.TAS2, consensus.Queue2} {
		im := mk()
		scripts := proposalScripts([]int{0, 1})
		for _, tc := range []struct {
			model faults.Model
			sched func(seed int64) Schedule
		}{
			{faults.Model{}, func(seed int64) Schedule { return Schedule{Seed: seed} }},
			{crashStop, func(seed int64) Schedule {
				return Schedule{Seed: seed, CrashAfter: map[int]int{int(seed % 2): int(seed % 3), 1: int(seed % 4)}}
			}},
			{recovery, func(seed int64) Schedule {
				p := int(seed % 2)
				return Schedule{Seed: seed, CrashAfter: map[int]int{p: int(seed % 3)}, Recoveries: map[int]int{p: 1}}
			}},
		} {
			leaves := leafSet(t, im, scripts, Options{Faults: tc.model})
			for seed := int64(0); seed < 30; seed++ {
				w := mustWalk(t, im, scripts, tc.sched(seed))
				if got := FormatSchedule(w.Schedule); !leaves[got] {
					t.Fatalf("%s %v seed %d: walked path is no leaf of the tree:\n%s", im.Name, tc.model, seed, got)
				}
			}
		}
	}
}
