package onebit

import (
	"context"
	"fmt"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/hierarchy"
	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// checkLinearizableAgainst runs an exhaustive exploration of the given
// scripts and checks every leaf history against the target spec.
func checkLinearizableAgainst(t *testing.T, im *program.Implementation, target *types.Spec, init types.State, scripts [][]types.Invocation) *explore.Result {
	t.Helper()
	opts := explore.Options{
		RecordHistory: true,
		OnLeaf: func(l *explore.Leaf) error {
			if _, err := linearize.Check(target, init, l.History()); err != nil {
				return fmt.Errorf("leaf not linearizable: %w\nhistory: %v\nschedule:\n%s",
					err, l.History(), explore.FormatSchedule(l.Schedule()))
			}
			return nil
		},
	}
	res, err := explore.RunContext(context.Background(), im, scripts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	return res
}

// ---- Section 4.3: bounded bit from one-use bits, machine form ----

func TestArrayGeometry(t *testing.T) {
	a := Array{Base: 3, R: 4, W: 2}
	if a.Size() != 12 {
		t.Errorf("Size = %d, want 12", a.Size())
	}
	if got := a.Obj(1, 1); got != 3 {
		t.Errorf("Obj(1,1) = %d, want 3", got)
	}
	if got := a.Obj(3, 4); got != 3+11 {
		t.Errorf("Obj(3,4) = %d, want %d", got, 3+11)
	}
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {4, 1}, {1, 5}} {
		if got := a.Obj(bad[0], bad[1]); got != -1 {
			t.Errorf("Obj(%d,%d) = %d, want -1", bad[0], bad[1], got)
		}
	}
}

func TestBitArraySoloSemantics(t *testing.T) {
	// Sequentially: reads see the latest write; redundant writes are free.
	im := Implementation(4, 3, 0)
	states := im.InitialStates()
	var readerMem, writerMem any

	read := func(want int) {
		t.Helper()
		res, err := program.Solo(im, states, 0, types.Read, readerMem, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resp != types.ValOf(want) {
			t.Fatalf("read = %v, want val(%d)", res.Resp, want)
		}
		readerMem = res.Mem
	}
	write := func(x, wantSteps int) {
		t.Helper()
		res, err := program.Solo(im, states, 1, types.Write(x), writerMem, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resp != types.OK {
			t.Fatalf("write = %v", res.Resp)
		}
		if res.Steps != wantSteps {
			t.Fatalf("write(%d) took %d steps, want %d", x, res.Steps, wantSteps)
		}
		writerMem = res.Mem
	}

	read(0)
	write(0, 0) // no change: no bits touched
	write(1, 4) // flips a row of r=4 bits
	read(1)
	write(1, 0) // redundant
	write(0, 4)
	read(0)
}

func TestBitArrayReadBudgetRespected(t *testing.T) {
	// r reads and w writes must complete without running off the array.
	im := Implementation(2, 2, 1)
	states := im.InitialStates()
	var rm, wm any
	for i, x := range []int{0, 1} {
		res, err := program.Solo(im, states, 1, types.Write(x), wm, 100)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		wm = res.Mem
	}
	for i, want := range []int{1, 1} {
		res, err := program.Solo(im, states, 0, types.Read, rm, 100)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if res.Resp != types.ValOf(want) {
			t.Fatalf("read %d = %v, want %d", i, res.Resp, want)
		}
		rm = res.Mem
	}
}

// TestBitArrayLinearizableAllInterleavings is Experiment E1's core: for
// every r, w and write pattern, every interleaving of the reader's r reads
// with the writer's w writes yields a history linearizable against the
// SRSW bit spec.
func TestBitArrayLinearizableAllInterleavings(t *testing.T) {
	cases := []struct {
		r, w   int
		init   int
		writes []int
	}{
		{1, 1, 0, []int{1}},
		{2, 1, 0, []int{1}},
		{2, 2, 0, []int{1, 0}},
		{3, 2, 1, []int{0, 1}},
		{2, 3, 0, []int{1, 0, 1}},
		{2, 2, 0, []int{1, 1}}, // redundant write exercises the skip path
	}
	for _, tc := range cases {
		name := fmt.Sprintf("r%d_w%d_v%d_%v", tc.r, tc.w, tc.init, tc.writes)
		t.Run(name, func(t *testing.T) {
			im := Implementation(tc.r, tc.w, tc.init)
			reads := make([]types.Invocation, tc.r)
			for i := range reads {
				reads[i] = types.Read
			}
			writes := make([]types.Invocation, len(tc.writes))
			for i, x := range tc.writes {
				writes[i] = types.Write(x)
			}
			scripts := [][]types.Invocation{reads, writes}
			res := checkLinearizableAgainst(t, im, types.SRSWBit(), tc.init, scripts)
			if res.Leaves == 0 {
				t.Fatal("no executions explored")
			}
			// Every one-use bit is read at most once and written at most
			// once along any path (Section 3's discipline).
			for obj, ops := range res.OpAccess {
				if ops[types.OpRead] > 1 {
					t.Errorf("obj%d read %d times", obj, ops[types.OpRead])
				}
				if ops[types.OpWrite] > 1 {
					t.Errorf("obj%d written %d times", obj, ops[types.OpWrite])
				}
			}
		})
	}
}

// ---- Section 4.3: sequential budgets and concurrent runs ----

// restartScanReader is the DESIGN.md ablation as a test mutant: the
// Section 4.3 reader, except that every read rescans rows from 1 instead
// of resuming from i_r. Each read still uses a fresh column, so the
// one-use discipline holds and the bit stays regular, but a write whose
// row flip straddles two reads can be seen by the earlier read and missed
// by the later one (new/old inversion): the paper's resuming reader is
// load-bearing for atomicity, not just cheaper.
func restartScanReader(a Array) program.Machine {
	reader := ReaderMachine(a)
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, mem any) any {
			m := decodeReaderMem(mem)
			m.IR = 1
			return reader.Start(inv, m)
		},
		NextFn: reader.Next,
	}
}

// restartScanImplementation is Implementation with the mutant reader.
func restartScanImplementation(r, w, init int) *program.Implementation {
	im := Implementation(r, w, init)
	im.Machines[0] = restartScanReader(Array{R: r, W: w, Init: init})
	return im
}

// soloBit drives one bounded bit through program.Solo, threading the
// reader's and the writer's persistent memories.
type soloBit struct {
	im         *program.Implementation
	states     []types.State
	rmem, wmem any
}

func newSoloBit(im *program.Implementation) *soloBit {
	return &soloBit{im: im, states: im.InitialStates()}
}

func (b *soloBit) read() (int, error) {
	res, err := program.Solo(b.im, b.states, 0, types.Read, b.rmem, 10_000)
	if err != nil {
		return 0, err
	}
	b.rmem = res.Mem
	return res.Resp.Val, nil
}

func (b *soloBit) write(x int) error {
	res, err := program.Solo(b.im, b.states, 1, types.Write(x), b.wmem, 10_000)
	if err != nil {
		return err
	}
	b.wmem = res.Mem
	return nil
}

func TestBoundedBitSequential(t *testing.T) {
	for _, restart := range []bool{false, true} {
		im := Implementation(5, 4, 0)
		if restart {
			im = restartScanImplementation(5, 4, 0)
		}
		if len(im.Objects) != 25 {
			t.Errorf("one-use bits = %d, want 25", len(im.Objects))
		}
		b := newSoloBit(im)
		check := func(want int) {
			t.Helper()
			got, err := b.read()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("restart=%v: read = %d, want %d", restart, got, want)
			}
		}
		check(0)
		if err := b.write(1); err != nil {
			t.Fatal(err)
		}
		check(1)
		if err := b.write(1); err != nil { // redundant
			t.Fatal(err)
		}
		check(1)
		if err := b.write(0); err != nil {
			t.Fatal(err)
		}
		check(0)
	}
}

// TestBoundedBitBudgets: the (r+1)-th read and the (w+1)-th value-changing
// write fail instead of running off the array; redundant writes never
// consume budget.
func TestBoundedBitBudgets(t *testing.T) {
	b := newSoloBit(Implementation(1, 1, 0))
	if _, err := b.read(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.read(); err == nil {
		t.Error("read past the read bound succeeded")
	}
	if err := b.write(1); err != nil {
		t.Fatal(err)
	}
	if err := b.write(1); err != nil {
		t.Errorf("redundant write failed: %v", err)
	}
	if err := b.write(0); err == nil {
		t.Error("write past the write bound succeeded")
	}
}

// bitScripts gives the reader r reads and the writer w alternating writes
// 1, 0, 1, ...
func bitScripts(r, w int) [][]types.Invocation {
	reads := make([]types.Invocation, r)
	for i := range reads {
		reads[i] = types.Read
	}
	writes := make([]types.Invocation, w)
	for i := range writes {
		writes[i] = types.Write((i + 1) % 2)
	}
	return [][]types.Invocation{reads, writes}
}

// TestBoundedBitConcurrentStress walks the machines under 30 seeds and
// checks each history against the SRSW bit type. Only the paper's
// resuming reader is atomic; the restart-scan mutant is merely regular
// (see TestRestartScanIsNotAtomic).
func TestBoundedBitConcurrentStress(t *testing.T) {
	const r, w = 10, 9
	for trial := 0; trial < 30; trial++ {
		out, err := explore.Walk(Implementation(r, w, 0), bitScripts(r, w), explore.Schedule{Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := linearize.Check(types.SRSWBit(), 0, out.History); err != nil {
			t.Fatalf("trial %d: not linearizable: %v\n%v", trial, err, out.History)
		}
	}
}

// ---- Sections 5.1/5.2: one-use bit from a non-trivial type ----

func TestFromTypeAllZooMembers(t *testing.T) {
	cases := []struct {
		spec  *types.Spec
		inits []types.State
	}{
		{types.TestAndSet(2), []types.State{0}},
		{types.Register(2, 2), []types.State{0}},
		{types.Queue(2, 2, 3), []types.State{types.QueueState()}},
		{types.Stack(2, 2, 3), []types.State{types.QueueState()}},
		{types.FetchAdd(2), []types.State{0}},
		{types.Swap(2, 2), []types.State{0}},
		{types.CompareSwap(2, 3), []types.State{2}},
		{types.StickyCell(2, 2), []types.State{types.StickyUnset}},
		{types.Toggle(2), []types.State{0}},
		{types.LatchFlag(), []types.State{types.LatchFlagInit()}},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name, func(t *testing.T) {
			im, pair, err := FromType(tc.spec, tc.inits, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := im.Validate(); err != nil {
				t.Fatal(err)
			}
			// Solo reader: unwritten bit reads 0.
			states := im.InitialStates()
			res, err := program.Solo(im, states, 0, types.Read, nil, 100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resp != types.ValOf(0) {
				t.Fatalf("solo read = %v (pair %v)", res.Resp, pair)
			}
			// Sequential write then read: reads 1.
			states = im.InitialStates()
			if _, err := program.Solo(im, states, 1, types.Write(1), nil, 100); err != nil {
				t.Fatal(err)
			}
			res, err = program.Solo(im, states, 0, types.Read, nil, 100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resp != types.ValOf(1) {
				t.Fatalf("read after write = %v (pair %v)", res.Resp, pair)
			}
			// All interleavings of one read and one write are linearizable
			// against the one-use bit type.
			scripts := [][]types.Invocation{{types.Read}, {types.Write(1)}}
			checkLinearizableAgainst(t, im, types.OneUseBit(), types.OneUseUnset, scripts)
		})
	}
}

func TestFromTypeRejectsTrivialAndNondet(t *testing.T) {
	if _, _, err := FromType(types.Beacon(2), []types.State{0}, 3); err == nil {
		t.Error("trivial type accepted")
	}
	if _, _, err := FromType(types.WeakLeader(2), []types.State{0}, 3); err == nil {
		t.Error("nondeterministic type accepted")
	}
}

// ---- Section 5.3: one-use bit from 2-process consensus ----

// miniCAS builds a tiny register-free 2-consensus implementation used as
// the Section 5.3 substrate (a local copy to avoid an import cycle with
// package consensus in some layouts; the full protocols are exercised in
// the core package tests).
func miniCAS() *program.Implementation {
	type st struct {
		PC int
		V  int
	}
	m := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return st{PC: 0, V: inv.A} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(st)
			if s.PC == 0 {
				return program.InvokeAction(0, types.Inv(types.OpCAS, 2, s.V)), st{PC: 1, V: s.V}
			}
			if resp.Val == 2 {
				return program.ReturnAction(types.ValOf(s.V), nil), s
			}
			return program.ReturnAction(types.ValOf(resp.Val), nil), s
		},
	}
	return &program.Implementation{
		Name:   "mini-cas-consensus",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{{
			Name: "cas", Spec: types.CompareSwap(2, 3), Init: 2, PortOf: program.AllPorts(2),
		}},
		Machines: []program.Machine{m, m},
	}
}

func TestFromConsensusLinearizable(t *testing.T) {
	im, err := FromConsensusImplementation(miniCAS())
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	scripts := [][]types.Invocation{{types.Read}, {types.Write(1)}}
	checkLinearizableAgainst(t, im, types.OneUseBit(), types.OneUseUnset, scripts)

	// Sequential semantics.
	states := im.InitialStates()
	res, err := program.Solo(im, states, 0, types.Read, nil, 100)
	if err != nil || res.Resp != types.ValOf(0) {
		t.Fatalf("solo read = %v, err %v", res.Resp, err)
	}
	states = im.InitialStates()
	if _, err := program.Solo(im, states, 1, types.Write(1), nil, 100); err != nil {
		t.Fatal(err)
	}
	res, err = program.Solo(im, states, 0, types.Read, nil, 100)
	if err != nil || res.Resp != types.ValOf(1) {
		t.Fatalf("read after write = %v, err %v", res.Resp, err)
	}
}

func TestFromConsensusRejectsWrongArity(t *testing.T) {
	bad := miniCAS()
	bad.Procs = 3
	bad.Machines = append(bad.Machines, bad.Machines[0])
	bad.Objects[0].PortOf = program.AllPorts(3)
	if _, _, _, err := FromConsensus(bad, 2, 0, 1, 0); err == nil {
		t.Error("3-process substrate accepted")
	}
}

// TestBitArrayMachinesUnderTokenScheduler drives the Section 4.3 machines
// at a scale beyond the exhaustive explorer (r=20, w=19) along seeded
// walks, checking each history against the SRSW bit type.
func TestBitArrayMachinesUnderTokenScheduler(t *testing.T) {
	const r, w = 20, 19
	for seed := int64(0); seed < 15; seed++ {
		out, err := explore.Walk(Implementation(r, w, 0), bitScripts(r, w), explore.Schedule{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := linearize.Check(types.SRSWBit(), 0, out.History); err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, out.History)
		}
	}
}

// TestBitArrayMachineCrashMidWrite crashes the writer at every point of
// its row flips; the reader must still complete all its reads with values
// consistent with the one-use bit semantics (the half-flipped row makes
// the interrupted write forever concurrent, so either value is legal for
// reads after the crash).
func TestBitArrayMachineCrashMidWrite(t *testing.T) {
	const r, w = 4, 3
	for crashAfter := 0; crashAfter <= r*w; crashAfter++ {
		im := Implementation(r, w, 0)
		reads := make([]types.Invocation, r)
		for i := range reads {
			reads[i] = types.Read
		}
		writes := []types.Invocation{types.Write(1), types.Write(0), types.Write(1)}
		s := explore.Schedule{Seed: int64(crashAfter), CrashAfter: map[int]int{1: crashAfter}}
		out, err := explore.Walk(im, [][]types.Invocation{reads, writes}, s)
		if err != nil {
			t.Fatalf("crash@%d: %v", crashAfter, err)
		}
		if len(out.Responses[0]) != r {
			t.Fatalf("crash@%d: reader completed %d of %d reads", crashAfter, len(out.Responses[0]), r)
		}
		// A write cut short by the crash is pending: linearizability must
		// hold for SOME completion — the pending write either took effect
		// (append it as completed) or did not (drop it).
		complete := out.History.Complete()
		for i := range complete {
			complete[i].Port = complete[i].Proc + 1
		}
		okDropped := false
		if _, err := linearize.Check(types.SRSWBit(), 0, complete); err == nil {
			okDropped = true
		}
		okTaken := false
		maxEnd := 0
		var pendingOps []hist.Op
		for _, op := range out.History {
			if !op.Complete() {
				pendingOps = append(pendingOps, op)
			}
			if op.Complete() && op.End > maxEnd {
				maxEnd = op.End
			}
		}
		if len(pendingOps) > 0 {
			withWrite := append(hist.History(nil), complete...)
			for _, op := range pendingOps {
				op.Port = op.Proc + 1
				op.End = maxEnd + 1
				op.Resp = types.OK // a completed write acknowledges
				withWrite = append(withWrite, op)
			}
			if _, err := linearize.Check(types.SRSWBit(), 0, withWrite); err == nil {
				okTaken = true
			}
		} else {
			okTaken = okDropped
		}
		if !okDropped && !okTaken {
			t.Fatalf("crash@%d: no completion of the pending write linearizes\n%v", crashAfter, out.History)
		}
	}
}

// TestRestartScanIsNotAtomic runs the exhaustive check of a write racing
// two reads on the restart-scan mutant: some interleaving lets the first
// read see the write's first column flipped and the second read miss it,
// a new/old inversion no linearization permits. The paper's resuming
// reader passes the same check.
func TestRestartScanIsNotAtomic(t *testing.T) {
	badLeaves := func(im *program.Implementation) (bad, leaves int64) {
		t.Helper()
		opts := explore.Options{
			RecordHistory: true,
			OnLeaf: func(l *explore.Leaf) error {
				if _, err := linearize.Check(types.SRSWBit(), 0, l.History()); err != nil {
					bad++
				}
				return nil
			},
		}
		res, err := explore.RunContext(context.Background(), im, [][]types.Invocation{{types.Read, types.Read}, {types.Write(1)}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return bad, res.Leaves
	}
	bad, leaves := badLeaves(restartScanImplementation(2, 1, 0))
	if bad == 0 {
		t.Fatalf("restart-scan mutant: 0 of %d leaves non-linearizable, want an inversion", leaves)
	}
	t.Logf("restart-scan mutant: %d of %d leaves non-linearizable", bad, leaves)
	if bad, leaves := badLeaves(Implementation(2, 1, 0)); bad != 0 {
		t.Fatalf("resuming reader: %d of %d leaves non-linearizable", bad, leaves)
	}
}

// BenchmarkBitArrayScan is the DESIGN.md ablation: the paper's resuming
// row scan versus the restart-scan mutant. Each round is a write followed
// by a read, run one after the other through program.Solo on one set of
// object states; the k-th restart read rescans k rows.
func BenchmarkBitArrayScan(b *testing.B) {
	const size = 128
	variants := []struct {
		name string
		mk   func() *program.Implementation
	}{
		{"resume", func() *program.Implementation { return Implementation(size, size, 0) }},
		{"restart", func() *program.Implementation { return restartScanImplementation(size, size, 0) }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			im := v.mk()
			for i := 0; i < b.N; i++ {
				states := im.InitialStates()
				mems := make([]any, 2)
				for k := 0; k < size; k++ {
					for _, op := range []struct {
						p   int
						inv types.Invocation
					}{{1, types.Write(1 - k%2)}, {0, types.Read}} {
						res, err := program.Solo(im, states, op.p, op.inv, mems[op.p], 4*size)
						if err != nil {
							b.Fatal(err)
						}
						mems[op.p] = res.Mem
					}
				}
			}
		})
	}
}

// TestFromObliviousWitness exercises the published Section 5.1 form on the
// oblivious zoo: find the witness, build the bit, verify all interleavings.
func TestFromObliviousWitness(t *testing.T) {
	cases := []struct {
		spec  *types.Spec
		inits []types.State
	}{
		{types.TestAndSet(2), []types.State{0}},
		{types.Queue(2, 2, 3), []types.State{types.QueueState()}},
		{types.FetchAdd(2), []types.State{0}},
		{types.StickyCell(2, 2), []types.State{types.StickyUnset}},
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name, func(t *testing.T) {
			w, err := hierarchy.FindObliviousWitness(tc.spec, tc.inits, 64)
			if err != nil {
				t.Fatal(err)
			}
			im := FromObliviousWitness(tc.spec, w)
			if err := im.Validate(); err != nil {
				t.Fatal(err)
			}
			scripts := [][]types.Invocation{{types.Read}, {types.Write(1)}}
			checkLinearizableAgainst(t, im, types.OneUseBit(), types.OneUseUnset, scripts)
			// Solo semantics: unwritten reads 0; written reads 1.
			states := im.InitialStates()
			res, err := program.Solo(im, states, 0, types.Read, nil, 10)
			if err != nil || res.Resp != types.ValOf(0) {
				t.Fatalf("solo read: %v, %v", res.Resp, err)
			}
			if res.Steps != 1 {
				t.Errorf("Section 5.1 read took %d steps, want exactly 1", res.Steps)
			}
		})
	}
}
