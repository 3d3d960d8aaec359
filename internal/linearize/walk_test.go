package linearize

import (
	"math/rand"
	"strings"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/hist"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// The tests in this file check histories recorded by explore.Walk: the
// recorder's clock, and the checkers on real (walked) executions.

// direct implements spec for procs processes over one shared object of
// spec: each target operation applies its invocation to the object. A
// write reads the object back before it returns, so a crash between the
// two accesses leaves a write that took effect while its operation stays
// pending.
func direct(spec *types.Spec, init types.State, procs int) *program.Implementation {
	type st struct {
		Inv  types.Invocation
		PC   int
		Resp types.Response
	}
	m := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return st{Inv: inv} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(st)
			switch {
			case s.PC == 0:
				return program.InvokeAction(0, s.Inv), st{Inv: s.Inv, PC: 1}
			case s.PC == 1 && s.Inv.Op == types.OpWrite:
				return program.InvokeAction(0, types.Read), st{Inv: s.Inv, PC: 2, Resp: resp}
			case s.PC == 1:
				return program.ReturnAction(resp, nil), s
			default:
				return program.ReturnAction(s.Resp, nil), s
			}
		},
	}
	machines := make([]program.Machine, procs)
	for p := range machines {
		machines[p] = m
	}
	return &program.Implementation{
		Name:   "direct-" + spec.Name,
		Target: spec,
		Procs:  procs,
		Objects: []program.ObjectDecl{{
			Name: "obj", Spec: spec, Init: init, PortOf: program.AllPorts(procs),
		}},
		Machines: machines,
	}
}

// registerScripts gives writer w the writes of values[w] in order (writers
// are processes 0..len(values)-1) and each of the readers that follow ops
// reads.
func registerScripts(values [][]int, readers, ops int) [][]types.Invocation {
	scripts := make([][]types.Invocation, 0, len(values)+readers)
	for _, vals := range values {
		s := make([]types.Invocation, len(vals))
		for i, v := range vals {
			s[i] = types.Write(v)
		}
		scripts = append(scripts, s)
	}
	for rd := 0; rd < readers; rd++ {
		s := make([]types.Invocation, ops)
		for i := range s {
			s[i] = types.Read
		}
		scripts = append(scripts, s)
	}
	return scripts
}

func randomValues(rng *rand.Rand, writers, ops, k int) [][]int {
	values := make([][]int, writers)
	for w := range values {
		values[w] = make([]int, ops)
		for i := range values[w] {
			values[w][i] = rng.Intn(k)
		}
	}
	return values
}

// walkRegister walks scripts on a one-register implementation of k values
// under s.
func walkRegister(t *testing.T, k int, scripts [][]types.Invocation, s explore.Schedule) *explore.Walked {
	t.Helper()
	w, err := explore.Walk(direct(types.Register(len(scripts), k), 0, len(scripts)), scripts, s)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWalkHistoryClockMonotone pins the recorded stamps: within a process
// every operation ends after it begins and begins after its predecessor
// ended.
func TestWalkHistoryClockMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := walkRegister(t, 4, registerScripts(randomValues(rng, 1, 50, 4), 1, 50), explore.Schedule{Seed: 1})
	last := make(map[int]int)
	for _, op := range w.History {
		if op.End <= op.Begin {
			t.Fatalf("operation ends at %d, begins at %d: %+v", op.End, op.Begin, op)
		}
		if prev, ok := last[op.Proc]; ok && op.Begin <= prev {
			t.Fatalf("process %d: operation begins at %d, predecessor ended at %d", op.Proc, op.Begin, last[op.Proc])
		}
		last[op.Proc] = op.End
	}
	if len(w.History) != 100 {
		t.Fatalf("recorded %d operations, want 100", len(w.History))
	}
}

// TestWalkHistoryTicksDistinct walks eight processes: no two stamps of the
// history coincide.
func TestWalkHistoryTicksDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := walkRegister(t, 8, registerScripts(randomValues(rng, 4, 200, 8), 4, 200), explore.Schedule{Seed: 2})
	seen := make(map[int]bool)
	for _, op := range w.History {
		for _, tick := range []int{op.Begin, op.End} {
			if seen[tick] {
				t.Fatalf("duplicate stamp %d", tick)
			}
			seen[tick] = true
		}
	}
}

// TestCheckAtomicOnAtomicRegister: every access to the shared register is
// atomic and falls inside its operation's recorded interval, so every
// walked history of two writers and two readers linearizes.
func TestCheckAtomicOnAtomicRegister(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := walkRegister(t, 8, registerScripts(randomValues(rng, 2, 7, 8), 2, 7), explore.Schedule{Seed: seed})
		if _, err := Check(types.Register(4, 8), 0, w.History); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCheckRegularAcceptsRegularRejectsGarbage: a walked history is
// regular, and the same history with one read answering a value nobody
// wrote is not.
func TestCheckRegularAcceptsRegularRejectsGarbage(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w := walkRegister(t, 8, registerScripts([][]int{{1, 2, 3}}, 1, 4), explore.Schedule{Seed: seed})
		if err := CheckRegular(w.History, 0); err != nil {
			t.Fatalf("seed %d: regular history rejected: %v", seed, err)
		}
		bad := append(hist.History(nil), w.History...)
		for i := range bad {
			if bad[i].Inv == types.Read {
				bad[i].Resp = types.ValOf(7)
				break
			}
		}
		if err := CheckRegular(bad, 0); err == nil {
			t.Fatalf("seed %d: garbage read accepted as regular", seed)
		} else if !strings.Contains(err.Error(), "not regular") {
			t.Fatalf("seed %d: unexpected error: %v", seed, err)
		}
	}
}

// TestCheckRegularPendingWrite crashes the writer between its write and
// the read-back: the write took effect but its operation stays pending. A
// read overlapping the pending write may return its value; moved to begin
// after every read, the same write allows nothing.
func TestCheckRegularPendingWrite(t *testing.T) {
	sawPending := false
	for seed := int64(0); seed < 20; seed++ {
		s := explore.Schedule{Seed: seed, CrashAfter: map[int]int{0: 1}}
		w := walkRegister(t, 8, registerScripts([][]int{{5}}, 1, 3), s)
		if !w.Crashed[0] {
			t.Fatalf("seed %d: writer did not crash", seed)
		}
		if err := CheckRegular(w.History, 0); err != nil {
			t.Fatalf("seed %d: read overlapping a pending write rejected: %v", seed, err)
		}
		late := append(hist.History(nil), w.History...)
		read5, maxEnd, wi := false, 0, -1
		for i, op := range late {
			switch {
			case op.Inv == types.Write(5) && !op.Complete():
				wi = i
			case op.Resp == types.ValOf(5):
				read5 = true
			}
			if op.Complete() && op.End > maxEnd {
				maxEnd = op.End
			}
		}
		if wi < 0 {
			t.Fatalf("seed %d: no pending write in %v", seed, w.History)
		}
		if !read5 {
			continue
		}
		sawPending = true
		late[wi].Begin = maxEnd + 1
		if err := CheckRegular(late, 0); err == nil {
			t.Fatalf("seed %d: read of a future pending write accepted", seed)
		}
	}
	if !sawPending {
		t.Fatal("no seed let a read see the pending write")
	}
}

// TestCheckRegularCrashInjectedRun crashes the writer after its write took
// effect, against two readers. The readers may observe either value;
// regularity must accept every walk.
func TestCheckRegularCrashInjectedRun(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := explore.Schedule{Seed: seed, CrashAfter: map[int]int{0: 1}}
		w := walkRegister(t, 8, registerScripts([][]int{{7}}, 2, 8), s)
		if !w.Crashed[0] || len(w.History.Complete()) != len(w.History)-1 {
			t.Fatalf("seed %d: want the write pending, got %v", seed, w.History)
		}
		if err := CheckRegular(w.History, 0); err != nil {
			t.Fatalf("seed %d: crash-injected run rejected: %v", seed, err)
		}
	}
}

// TestCheckRegularSingleWriterWalks walks one writer racing three readers
// on the register. Atomicity implies regularity, so CheckRegular must
// accept every walk.
func TestCheckRegularSingleWriterWalks(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := walkRegister(t, 4, registerScripts(randomValues(rng, 1, 16, 4), 3, 16), explore.Schedule{Seed: seed})
		if err := CheckRegular(w.History, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestWalkRecordsArbitraryInvocations: the history records any target
// invocation with its process, port and response.
func TestWalkRecordsArbitraryInvocations(t *testing.T) {
	w, err := explore.Walk(direct(types.TestAndSet(3), 0, 3), [][]types.Invocation{nil, nil, {types.TAS}}, explore.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	h := w.History
	if len(h) != 1 || h[0].Proc != 2 || h[0].Port != 3 || h[0].Inv != types.TAS ||
		h[0].Resp != types.ValOf(0) || !h[0].Complete() {
		t.Fatalf("recorded op = %+v", h)
	}
}
