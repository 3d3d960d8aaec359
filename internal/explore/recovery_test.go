package explore

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// oneRecovery is the canonical crash-recovery model of these tests: one
// crash event, and the crashed process may come back once.
var oneRecovery = faults.Model{MaxCrashes: 1, Mode: faults.CrashRecovery, MaxRecoveries: 1}

// TestCrashRecoveryZeroBudgetParity is the semantic anchor of the
// crash-recovery mode: with MaxRecoveries=0 a crashed process never comes
// back, so the exploration must be exactly the crash-stop one — same
// verdicts, same bounds, same node and leaf accounting — across the
// corpus, memoized or not, sequential or parallel, with and without
// symmetry reduction. Only the echoed fault model may differ (it names
// the mode), so it is normalized before comparing.
func TestCrashRecoveryZeroBudgetParity(t *testing.T) {
	impls := []*program.Implementation{
		consensus.TAS2(), consensus.Queue2(), consensus.NaiveRegister2(),
		consensus.CAS(2), consensus.CAS(3), consensus.Sticky(2),
		spinnerImpl(), soloDecideImpl(),
	}
	for _, im := range impls {
		for _, memoize := range []bool{false, true} {
			for _, sym := range []SymmetryMode{SymmetryOff, SymmetryAuto} {
				for _, workers := range []int{1, 4} {
					stop := Options{Memoize: memoize, Symmetry: sym, Parallelism: workers,
						Faults: faults.Model{MaxCrashes: 1, Mode: faults.CrashStop}}
					rec := stop
					rec.Faults = faults.Model{MaxCrashes: 1, Mode: faults.CrashRecovery}
					if !memoize {
						stop.MaxDepth, rec.MaxDepth = 64, 64
					}
					a, aErr := ConsensusKContext(context.Background(), im, 2, stop)
					b, bErr := ConsensusKContext(context.Background(), im, 2, rec)
					if (aErr == nil) != (bErr == nil) {
						t.Fatalf("%s memoize=%v sym=%v workers=%d: error mismatch: %v vs %v",
							im.Name, memoize, sym, workers, aErr, bErr)
					}
					if aErr != nil {
						continue
					}
					stripStats(a)
					stripStats(b)
					if a.Faults == nil || b.Faults == nil {
						t.Fatalf("%s: report does not echo the fault model", im.Name)
					}
					a.Faults, b.Faults = nil, nil
					if !reflect.DeepEqual(a, b) {
						t.Errorf("%s memoize=%v sym=%v workers=%d: MaxRecoveries=0 diverges from crash-stop\nstop:     %+v\nrecovery: %+v",
							im.Name, memoize, sym, workers, a, b)
					}
				}
			}
		}
	}
}

// TestRecoveryFindsMoreBehavior is the positive sanity check that a
// nonzero recovery budget actually grows the explored tree: on a correct
// protocol the verdict stands, the report echoes the model, and the node
// count strictly exceeds the crash-stop one (every crash-stop execution
// is still explored, plus every recovery continuation).
func TestRecoveryFindsMoreBehavior(t *testing.T) {
	im := consensus.TAS2()
	stop, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, Faults: oneRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.OK() {
		t.Fatalf("TAS2 failed under crash-recovery: %s", rec)
	}
	if rec.Faults == nil || *rec.Faults != oneRecovery {
		t.Errorf("report does not echo the crash-recovery model: %+v", rec.Faults)
	}
	if rec.Nodes <= stop.Nodes || rec.Leaves <= stop.Leaves {
		t.Errorf("recovery exploration did not add configurations (nodes %d vs %d, leaves %d vs %d)",
			rec.Nodes, stop.Nodes, rec.Leaves, stop.Leaves)
	}
	// The recovery edge itself is free, but the re-executed accesses are
	// real: a recovered execution performs strictly more object accesses
	// than its crash-stop prefix, so the depth bound may only grow.
	if rec.Depth < stop.Depth {
		t.Errorf("recovery exploration shrank the depth bound: %d vs %d", rec.Depth, stop.Depth)
	}
}

// TestDecisionChangedAfterRecoveryCounterexample pins the first new
// violation kind on a zoo protocol: the deliberately incorrect
// register-only protocol ("naive" in the registry) completes executions
// in which a recovered process's re-run decides against a survivor. The
// counterexample must carry both the crash and the recovery in its
// schedule, and the kind must name the recovery.
func TestDecisionChangedAfterRecoveryCounterexample(t *testing.T) {
	im := consensus.NaiveRegister2()
	rep, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, Faults: oneRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("naive register protocol verified under crash-recovery: %s", rep)
	}
	v := rep.Violation
	if v == nil || v.Kind != KindDecisionChangedAfterRecovery {
		t.Fatalf("violation = %+v, want KindDecisionChangedAfterRecovery", v)
	}
	var crash, recover bool
	for _, s := range v.Schedule {
		crash = crash || s.Crash
		recover = recover || s.Recover
	}
	if !crash || !recover {
		t.Fatalf("counterexample schedule lacks crash/recover annotation (crash=%v recover=%v):\n%s",
			crash, recover, FormatSchedule(v.Schedule))
	}
	if !strings.Contains(FormatSchedule(v.Schedule), "RECOVER") {
		t.Errorf("rendered schedule lacks the RECOVER marker:\n%s", FormatSchedule(v.Schedule))
	}
	if !strings.Contains(FormatLanes(v.Schedule, im), "RECOVER") {
		t.Errorf("lane rendering lacks the RECOVER marker:\n%s", FormatLanes(v.Schedule, im))
	}
}

// oneShot is the comparable machine state of oneShotImpl.
type oneShot struct {
	PC int
	V  int
}

// oneShotImpl is TAS2 with a deliberately non-recoverable announcement: a
// process first reads its own announcement register and treats "already
// announced" as an impossible state, spinning forever. Crash-free and
// under crash-stop the first read always sees 0 (each register is written
// only by its owner, exactly once), so the protocol verifies; under
// crash-recovery a process that crashes after announcing re-runs from its
// recovery section, observes its own pre-crash write, and diverges — the
// canonical missing-recovery-code bug the new mode exists to catch.
func oneShotImpl() *program.Implementation {
	machine := func(p int) program.Machine {
		own := 1 + p
		other := 1 + (1 - p)
		return program.FuncMachine{
			StartFn: func(inv types.Invocation, _ any) any { return oneShot{PC: 0, V: inv.A} },
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				s := state.(oneShot)
				switch s.PC {
				case 0:
					return program.InvokeAction(own, types.Read), oneShot{PC: 1, V: s.V}
				case 1:
					if resp.Val != 0 {
						// "Impossible": this process has not announced yet.
						return program.InvokeAction(own, types.Read), s
					}
					return program.InvokeAction(own, types.Write(s.V+1)), oneShot{PC: 2, V: s.V}
				case 2:
					return program.InvokeAction(0, types.TAS), oneShot{PC: 3, V: s.V}
				case 3:
					if resp == types.ValOf(0) {
						return program.ReturnAction(types.ValOf(s.V), nil), s
					}
					return program.InvokeAction(other, types.Read), oneShot{PC: 4, V: s.V}
				default:
					return program.ReturnAction(types.ValOf(resp.Val-1), nil), s
				}
			},
		}
	}
	return &program.Implementation{
		Name:   "one-shot-announce",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "elect", Spec: types.TestAndSet(2), Init: 0, PortOf: program.AllPorts(2)},
			{Name: "ann0", Spec: types.Register(2, 3), Init: 0, PortOf: program.AllPorts(2)},
			{Name: "ann1", Spec: types.Register(2, 3), Init: 0, PortOf: program.AllPorts(2)},
		},
		Machines: []program.Machine{machine(0), machine(1)},
	}
}

// TestRecoveryDivergenceCounterexample pins the second new violation
// kind: a protocol that is correct crash-free and under crash-stop but
// whose recovered processes spin forever must surface as
// KindBlockedByRecoveryDivergence with a recover-annotated schedule —
// under cycle detection and under a plain depth budget alike.
func TestRecoveryDivergenceCounterexample(t *testing.T) {
	im := oneShotImpl()

	// Contrast first: correct without recoveries, in both prior modes.
	for _, fm := range []faults.Model{{}, oneCrash} {
		rep, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, Faults: fm})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("one-shot protocol failed under %v (should only fail under crash-recovery): %s", fm, rep)
		}
	}

	rep, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, Faults: oneRecovery})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Violation
	if v == nil || v.Kind != KindBlockedByRecoveryDivergence {
		t.Fatalf("violation = %+v, want KindBlockedByRecoveryDivergence", v)
	}
	if rep.WaitFree {
		t.Errorf("divergent protocol still reported wait-free")
	}
	var recover bool
	for _, s := range v.Schedule {
		recover = recover || s.Recover
	}
	if !recover {
		t.Fatalf("counterexample schedule lacks the recovery:\n%s", FormatSchedule(v.Schedule))
	}

	// Depth-bounded analogue: no cycle detection, the budget trips instead.
	rep, err = ConsensusKContext(context.Background(), im, 2, Options{MaxDepth: 32, Faults: oneRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violation; v == nil || v.Kind != KindBlockedByRecoveryDivergence {
		t.Fatalf("depth-bounded violation = %+v, want KindBlockedByRecoveryDivergence", rep.Violation)
	}
}

// TestLeafRecoveriesAnnotation drives Run directly to pin the Leaf
// contract under crash-recovery: leaves on recovery-free paths carry a
// nil Recoveries slice, leaves past a recovery count it for exactly the
// recovered process, and a recovered process that finished carries a
// decision like any survivor.
func TestLeafRecoveriesAnnotation(t *testing.T) {
	im := consensus.TAS2()
	scripts := proposalScripts([]int{0, 1})
	var plain, recovered int
	var copies []leafCopy
	res, err := RunContext(context.Background(), im, scripts, Options{
		Faults: oneRecovery,
		OnLeaf: func(l *Leaf) error {
			copies = append(copies, copyLeaf(l))
			if l.Recoveries() == nil {
				plain++
				return nil
			}
			recovered++
			total := 0
			for p, n := range l.Recoveries() {
				if n < 0 {
					t.Fatalf("negative recovery count: %v", l.Recoveries())
				}
				total += n
				// Crashed is nil when every recovered process came back.
				if n > 0 && (l.Crashed() == nil || !l.Crashed()[p]) {
					// Recovered and done again: it must have decided.
					if len(l.Responses()[p]) == 0 {
						t.Fatalf("recovered survivor carries no responses")
					}
				}
			}
			if total == 0 || total > oneRecovery.MaxRecoveries {
				t.Fatalf("leaf recovery total %d out of budget", total)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain == 0 || recovered == 0 {
		t.Fatalf("leaf mix plain=%d recovered=%d, want both populations", plain, recovered)
	}
	if int64(len(copies)) != res.Leaves {
		t.Fatalf("%d leaves copied, Run reports %d", len(copies), res.Leaves)
	}
	checkLeafCopies(t, copies)
}

// TestRecoveryBudgetCountsCrashEvents pins the budget arithmetic: crashes
// and recoveries share MaxCrashes (a recovery never refunds the crash
// budget), so under MaxCrashes=1, MaxRecoveries=1 no execution can
// contain two crash edges, and every recovery is preceded by a crash of
// the same process.
func TestRecoveryBudgetCountsCrashEvents(t *testing.T) {
	im := consensus.TAS2()
	_, err := RunContext(context.Background(), im, proposalScripts([]int{0, 1}), Options{
		Faults: oneRecovery,
		OnLeaf: func(l *Leaf) error {
			crashes, recovers := 0, 0
			crashed := make(map[int]bool)
			for _, s := range l.Schedule() {
				switch {
				case s.Crash:
					crashes++
					crashed[s.Proc] = true
				case s.Recover:
					recovers++
					if !crashed[s.Proc] {
						t.Fatalf("recovery of a never-crashed process %d:\n%s", s.Proc, FormatSchedule(l.Schedule()))
					}
					crashed[s.Proc] = false
				}
			}
			if crashes > oneRecovery.MaxCrashes {
				t.Fatalf("%d crash edges exceed MaxCrashes=%d:\n%s", crashes, oneRecovery.MaxCrashes, FormatSchedule(l.Schedule()))
			}
			if recovers > oneRecovery.MaxRecoveries {
				t.Fatalf("%d recoveries exceed MaxRecoveries=%d:\n%s", recovers, oneRecovery.MaxRecoveries, FormatSchedule(l.Schedule()))
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}
