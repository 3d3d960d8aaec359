package registers

import (
	"context"
	"math/rand"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// reads returns a script of n reads.
func reads(n int) []types.Invocation {
	script := make([]types.Invocation, n)
	for i := range script {
		script[i] = types.Read
	}
	return script
}

// writes returns a script writing vs in order.
func writes(vs ...int) []types.Invocation {
	script := make([]types.Invocation, len(vs))
	for i, v := range vs {
		script[i] = types.Write(v)
	}
	return script
}

// regular checks single-writer regularity from init.
func regular(init int) func(hist.History) error {
	return func(h hist.History) error { return linearize.CheckRegular(h, init) }
}

// linearizable checks linearizability against im's target type from init.
func linearizable(im *program.Implementation, init int) func(hist.History) error {
	return func(h hist.History) error {
		_, err := linearize.Check(im.Target, init, h)
		return err
	}
}

// explored runs every interleaving of scripts on im and applies check to
// each leaf's history; a rejected leaf is the result's Violation. It fails
// the test on a structural error or an empty tree.
func explored(t *testing.T, im *program.Implementation, scripts [][]types.Invocation, check func(hist.History) error) *explore.Result {
	t.Helper()
	res, err := explore.RunContext(context.Background(), im, scripts, explore.Options{
		RecordHistory: true,
		OnLeaf:        func(l *explore.Leaf) error { return check(l.History()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaves == 0 {
		t.Fatal("no executions explored")
	}
	return res
}

// exhaustive requires every leaf of every interleaving to pass check.
func exhaustive(t *testing.T, im *program.Implementation, scripts [][]types.Invocation, check func(hist.History) error) {
	t.Helper()
	if v := explored(t, im, scripts, check).Violation; v != nil {
		t.Fatal(v)
	}
}

// TestLamportMRBitMachinesRegularExhaustive checks the multi-reader
// regular bit under ALL interleavings of two writes racing two readers.
func TestLamportMRBitMachinesRegularExhaustive(t *testing.T) {
	im := LamportMRBitMachines(2, 0)
	// reader 0, reader 1, writer
	exhaustive(t, im, [][]types.Invocation{reads(2), reads(1), writes(1, 0)}, regular(0))
}

// TestLamportMRBitMachinesNotAtomic exhibits the known gap: the
// construction is regular but NOT atomic — two readers can see a write in
// opposite orders (reader 1's copy is written after reader 0's). The
// explorer finds a leaf whose history fails linearizability, confirming
// why the chain needs the atomic layers above this one.
func TestLamportMRBitMachinesNotAtomic(t *testing.T) {
	im := LamportMRBitMachines(2, 0)
	// Reader 1 reads twice so that its second read can begin strictly
	// after reader 0's read returned (single-operation scripts all begin
	// at the root and are mutually concurrent).
	scripts := [][]types.Invocation{
		{types.Read},
		{types.Read, types.Read},
		{types.Write(1)},
	}
	sawNonAtomic := false
	res, err := explore.RunContext(context.Background(), im, scripts, explore.Options{
		RecordHistory: true,
		OnLeaf: func(l *explore.Leaf) error {
			// Reader 0 sees 1 while reader 1's LAST read — beginning
			// strictly after reader 0 finished — sees 0: a cross-reader
			// new/old inversion.
			var r0, r1 *hist.Op
			h := l.History()
			for i := range h {
				op := h[i]
				if op.Inv.Op == types.OpRead {
					if op.Proc == 0 {
						r0 = &h[i]
					} else if op.Proc == 1 {
						r1 = &h[i] // keeps the last one
					}
				}
			}
			if r0 != nil && r1 != nil && r0.Precedes(*r1) &&
				r0.Resp.Val == 1 && r1.Resp.Val == 0 {
				sawNonAtomic = true
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	if !sawNonAtomic {
		t.Fatal("no cross-reader inversion found; the construction looks atomic (unexpected)")
	}
}

// TestLamportMultiRegMachinesRegularExhaustive checks the unary k-valued
// register under all interleavings of reads racing value changes.
func TestLamportMultiRegMachinesRegularExhaustive(t *testing.T) {
	for _, tc := range []struct {
		k, init int
		writes  []int
		reads   int
	}{
		{3, 0, []int{2, 1}, 2},
		{4, 2, []int{0}, 2},
	} {
		im := LamportMultiRegMachines(tc.k, tc.init)
		exhaustive(t, im, [][]types.Invocation{reads(tc.reads), writes(tc.writes...)}, regular(tc.init))
	}
}

// stressed walks scripts on im once per seed and applies check to each
// walk's history. It samples scripts longer than the explorer can
// enumerate.
func stressed(t *testing.T, im *program.Implementation, scripts [][]types.Invocation, seeds int, check func(hist.History) error) {
	t.Helper()
	for seed := int64(0); seed < int64(seeds); seed++ {
		out, err := explore.Walk(im, scripts, explore.Schedule{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := check(out.History); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLamportMRBitRegularUnderStress samples runs of eight alternating
// writes racing two readers of eight reads each.
func TestLamportMRBitRegularUnderStress(t *testing.T) {
	im := LamportMRBitMachines(2, 0)
	scripts := [][]types.Invocation{reads(8), reads(8), writes(0, 1, 0, 1, 0, 1, 0, 1)}
	stressed(t, im, scripts, 20, regular(0))
}

// TestLamportMultiRegRegularUnderStress samples runs of ten writes of
// pseudo-random values racing ten reads of a 4-valued register.
func TestLamportMultiRegRegularUnderStress(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(5))
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = rng.Intn(k)
	}
	im := LamportMultiRegMachines(k, 0)
	stressed(t, im, [][]types.Invocation{reads(10), writes(vals...)}, 20, regular(0))
}

// sequential drives im one operation at a time through program.Solo: every
// reader first sees init, then each value written by writer. The writer's
// persistent memory is threaded through its writes.
func sequential(t *testing.T, im *program.Implementation, writer int, readers []int, init int, values ...int) {
	t.Helper()
	states := im.InitialStates()
	readAll := func(want int) {
		t.Helper()
		for _, r := range readers {
			res, err := program.Solo(im, states, r, types.Read, nil, 100)
			if err != nil || res.Resp != types.ValOf(want) {
				t.Fatalf("%s: reader %d read %v (err %v), want %d", im.Name, r, res.Resp, err, want)
			}
		}
	}
	readAll(init)
	var mem any
	for _, v := range values {
		res, err := program.Solo(im, states, writer, types.Write(v), mem, 100)
		if err != nil {
			t.Fatal(err)
		}
		mem = res.Mem
		readAll(v)
	}
}

// TestLamportMachinesSequential pins read-your-writes through Solo.
func TestLamportMachinesSequential(t *testing.T) {
	sequential(t, LamportMultiRegMachines(4, 1), 1, []int{0}, 1, 3, 0, 2)
}

func TestLamportMRBitSequential(t *testing.T) {
	sequential(t, LamportMRBitMachines(3, 1), 3, []int{0, 1, 2}, 1, 0, 1, 1, 0)
}

func TestLamportMultiRegSequential(t *testing.T) {
	sequential(t, LamportMultiRegMachines(5, 3), 1, []int{0}, 3, 0, 4, 2, 2, 1)
}

func TestVidyasankarSequential(t *testing.T) {
	sequential(t, VidyasankarMachines(6, 2), 1, []int{0}, 2, 0, 5, 3, 3, 1, 4)
}

func TestMRSWAtomicSequential(t *testing.T) {
	im := MRSWMachines(3, 10, 2, 7)
	if got := len(im.Objects); got != 9 {
		t.Errorf("%d cells, want 3 value cells + 6 report cells", got)
	}
	sequential(t, im, 3, []int{0, 1, 2}, 7, 9, 4)
}

func TestMRMWAtomicSequential(t *testing.T) {
	im := MRMWMachines(2, 2, 10, 3, 5)
	sequential(t, im, 0, []int{2, 3}, 5, 8)
	// The last write wins whichever writer made it.
	states := im.InitialStates()
	for _, w := range []struct{ writer, v int }{{0, 8}, {1, 3}, {0, 6}} {
		if _, err := program.Solo(im, states, w.writer, types.Write(w.v), nil, 100); err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{2, 3} {
			if res, err := program.Solo(im, states, r, types.Read, nil, 100); err != nil || res.Resp != types.ValOf(w.v) {
				t.Fatalf("reader %d after writer %d wrote %d: %v (err %v)", r, w.writer, w.v, res.Resp, err)
			}
		}
	}
}

// TestWTagOrdering covers the tag encoding: integer order on tags is the
// lexicographic order on (timestamp, writer id), whatever the value.
func TestWTagOrdering(t *testing.T) {
	const writers, k = 3, 4
	a := wTag(2, 0, 0, writers, k)
	b := wTag(1, 2, 3, writers, k)
	c := wTag(2, 1, 0, writers, k)
	if !(a > b) {
		t.Error("timestamp order broken")
	}
	if !(c > a) {
		t.Error("id tie-break broken")
	}
	if got := wTag(2, 1, 3, writers, k) % k; got != 3 {
		t.Errorf("value lost: %d", got)
	}
}

// TestVidyasankarMachinesAtomicExhaustive checks Vidyasankar's register
// for linearizability under every interleaving of reads racing writes.
func TestVidyasankarMachinesAtomicExhaustive(t *testing.T) {
	for _, tc := range []struct {
		k, init int
		writes  []int
		reads   int
	}{
		{4, 0, []int{3, 1}, 2},
		{3, 2, []int{0, 1}, 2},
		{2, 0, []int{1, 0}, 3},
	} {
		im := VidyasankarMachines(tc.k, tc.init)
		exhaustive(t, im, [][]types.Invocation{reads(tc.reads), writes(tc.writes...)}, linearizable(im, tc.init))
	}
}

// mrswScripts are the MRSW cases: two readers (processes 0 and 1) and the
// writer. The second case gives reader 1 a read that begins after reader
// 0's read returned, the shape of a cross-reader new/old inversion.
func mrswScripts() [][][]types.Invocation {
	cases := [][][]types.Invocation{
		{reads(1), reads(1), writes(1, 2)},
		{reads(1), reads(2), writes(1)},
	}
	if !testing.Short() {
		cases = append(cases, [][]types.Invocation{reads(2), reads(1), writes(1, 2)})
	}
	return cases
}

// TestMRSWMachinesAtomicExhaustive checks the reader-announce register for
// linearizability under every interleaving.
func TestMRSWMachinesAtomicExhaustive(t *testing.T) {
	for _, scripts := range mrswScripts() {
		im := MRSWMachines(2, 3, 2, 0)
		exhaustive(t, im, scripts, linearizable(im, 0))
	}
}

// TestMRSWMutantWithoutReportsRejected: a reader that skips the report
// phase returns its own cell, and the same exhaustive check finds two
// readers seeing one write in opposite orders.
func TestMRSWMutantWithoutReportsRejected(t *testing.T) {
	const k = 3
	im := MRSWMachines(2, k, 2, 0)
	for r := 0; r < 2; r++ {
		im.Machines[r] = ownCellReader(r, k)
	}
	if explored(t, im, [][]types.Invocation{reads(1), reads(2), writes(1)}, linearizable(im, 0)).Violation == nil {
		t.Fatal("reader without reports accepted as atomic")
	}
}

// ownCellReader reads object obj once and returns its value mod k.
func ownCellReader(obj, k int) program.Machine {
	type st struct{ PC int }
	return program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return st{} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			if state.(st).PC == 0 {
				return program.InvokeAction(obj, types.Read), st{PC: 1}
			}
			return program.ReturnAction(types.ValOf(resp.Val%k), nil), state
		},
	}
}

// mrmwScripts are the MRMW cases: two writers (processes 0 and 1) and the
// readers. The second case lets writer 1 finish before writer 0's second
// write begins, and reads the result after both.
func mrmwScripts() [][][]types.Invocation {
	cases := [][][]types.Invocation{
		{writes(1), writes(2), reads(1), reads(1)},
		{writes(1, 3), writes(2), reads(2)},
	}
	if !testing.Short() {
		cases = append(cases, [][]types.Invocation{writes(1), writes(2), reads(2), reads(1)})
	}
	return cases
}

// TestMRMWMachinesAtomicExhaustive checks the timestamp-maximum register
// for linearizability under every interleaving.
func TestMRMWMachinesAtomicExhaustive(t *testing.T) {
	for _, scripts := range mrmwScripts() {
		readers := len(scripts) - 2
		im := MRMWMachines(2, readers, 4, 3, 0)
		exhaustive(t, im, scripts, linearizable(im, 0))
	}
}

// TestMRMWMutantWithoutCollectRejected: a writer that skips its collect
// and always writes timestamp 1 lets an older write shadow a newer one,
// and the same exhaustive check finds it.
func TestMRMWMutantWithoutCollectRejected(t *testing.T) {
	const writers, k = 2, 4
	im := MRMWMachines(writers, 1, k, 3, 0)
	for w := 0; w < writers; w++ {
		im.Machines[w] = blindWriter(w, writers, k)
	}
	if explored(t, im, [][]types.Invocation{writes(1, 3), writes(2), reads(2)}, linearizable(im, 0)).Violation == nil {
		t.Fatal("writer without collect accepted as atomic")
	}
}

// blindWriter writes (timestamp 1, id, v) into its own register.
func blindWriter(id, writers, k int) program.Machine {
	type st struct{ PC, V int }
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return st{V: inv.A} },
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			s := state.(st)
			if s.PC == 0 {
				return program.InvokeAction(id, types.Write(wTag(1, id, s.V, writers, k))), st{PC: 1, V: s.V}
			}
			return program.ReturnAction(types.OK, nil), s
		},
	}
}

// TestTimestampCapacityEnforced: a write beyond the declared capacity has
// no transition in the cell type, so the run fails instead of wrapping.
func TestTimestampCapacityEnforced(t *testing.T) {
	for _, tc := range []struct {
		im      *program.Implementation
		scripts [][]types.Invocation
	}{
		{MRSWMachines(1, 2, 1, 0), [][]types.Invocation{reads(1), writes(1, 0)}},
		{MRMWMachines(2, 1, 2, 1, 0), [][]types.Invocation{writes(1), writes(0), reads(1)}},
	} {
		if _, err := explore.RunContext(context.Background(), tc.im, tc.scripts, explore.Options{}); err == nil {
			t.Errorf("%s: write beyond capacity accepted", tc.im.Name)
		}
	}
}
