package universal

import (
	"errors"
	"sort"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

var faa1 = types.Inv(types.OpFAA, 1)

// mustImpl builds a universal implementation or fails the test.
func mustImpl(t *testing.T, target *types.Spec, init types.State, procs, slots int, alphabet []types.Invocation) *program.Implementation {
	t.Helper()
	im, err := MachineImplementation(target, init, procs, slots, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// solo runs one operation of process p through program.Solo, threading
// p's persistent memory through mems.
func solo(t *testing.T, im *program.Implementation, states []types.State, mems []any, p int, inv types.Invocation) types.Response {
	t.Helper()
	res, err := program.Solo(im, states, p, inv, mems[p], 1000)
	if err != nil {
		t.Fatal(err)
	}
	mems[p] = res.Mem
	return res.Resp
}

func TestSequentialCounter(t *testing.T) {
	im := mustImpl(t, types.FetchAdd(2), 0, 2, 64, []types.Invocation{faa1, types.Inv(types.OpFAA, 0)})
	states, mems := im.InitialStates(), make([]any, 2)
	for i := 0; i < 5; i++ {
		if resp := solo(t, im, states, mems, 0, faa1); resp != types.ValOf(i) {
			t.Fatalf("faa #%d = %v", i, resp)
		}
	}
	if resp := solo(t, im, states, mems, 1, types.Inv(types.OpFAA, 0)); resp != types.ValOf(5) {
		t.Fatalf("other process read %v", resp)
	}
	if pos := mems[1].(umem).Pos; pos != 6 {
		t.Errorf("log position = %d, want 6", pos)
	}
}

func TestSequentialQueue(t *testing.T) {
	alphabet := []types.Invocation{types.Enq(1), types.Enq(2), types.Enq(3), types.Deq}
	im := mustImpl(t, types.Queue(3, 4, 8), types.QueueState(), 3, 64, alphabet)
	states, mems := im.InitialStates(), make([]any, 3)
	for _, v := range []int{3, 1, 2} {
		solo(t, im, states, mems, 0, types.Enq(v))
	}
	for _, want := range []int{3, 1, 2} {
		if resp := solo(t, im, states, mems, 1, types.Deq); resp != types.ValOf(want) {
			t.Fatalf("deq = %v, want val(%d)", resp, want)
		}
	}
	if resp := solo(t, im, states, mems, 2, types.Deq); resp.Label != types.LabelEmpty {
		t.Fatalf("deq on empty = %v", resp)
	}
}

// TestConcurrentCounterExactness walks the machines under seeded
// interleavings: the fetch-and-add responses across all processes are
// exactly {0, ..., procs*each-1}, and each process's own view is
// increasing.
func TestConcurrentCounterExactness(t *testing.T) {
	const procs, each = 4, 50
	im := mustImpl(t, types.FetchAdd(procs), 0, procs, procs*each+procs, []types.Invocation{faa1})
	scripts := make([][]types.Invocation, procs)
	for p := range scripts {
		for i := 0; i < each; i++ {
			scripts[p] = append(scripts[p], faa1)
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		out, err := explore.Walk(im, scripts, explore.Schedule{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkCounterExact(t, out.Responses, procs*each)
	}
}

// checkCounterExact checks that per-process responses are increasing and
// that together they are exactly {0, ..., n-1}.
func checkCounterExact(t *testing.T, responses [][]types.Response, n int) {
	t.Helper()
	var all []int
	for p, resps := range responses {
		for i, resp := range resps {
			if i > 0 && resp.Val <= resps[i-1].Val {
				t.Fatalf("p%d saw non-increasing values %v", p, resps)
			}
			all = append(all, resp.Val)
		}
	}
	sort.Ints(all)
	if len(all) != n {
		t.Fatalf("%d responses, want %d", len(all), n)
	}
	for i, v := range all {
		if v != i {
			t.Fatalf("responses are not exactly {0..%d}: %v", n-1, all)
		}
	}
}

// TestConcurrentQueueLinearizable samples seeded schedules of three
// processes mixing enqueues and dequeues; every history linearizes.
func TestConcurrentQueueLinearizable(t *testing.T) {
	const procs = 3
	target := types.Queue(procs, 10, 32)
	alphabet := []types.Invocation{types.Deq}
	scripts := make([][]types.Invocation, procs)
	for p := range scripts {
		for i := 0; i < 6; i++ {
			inv := types.Enq(p*3 + i%3)
			if i%2 == 1 {
				inv = types.Deq
			} else {
				alphabet = append(alphabet, inv)
			}
			scripts[p] = append(scripts[p], inv)
		}
	}
	im := mustImpl(t, target, types.QueueState(), procs, 18, alphabet)
	for seed := int64(0); seed < 10; seed++ {
		out, err := explore.Walk(im, scripts, explore.Schedule{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := linearize.Check(target, types.QueueState(), out.History); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLogCapacity: a log of two slots takes two operations; a run that
// needs a third fails.
func TestLogCapacity(t *testing.T) {
	im := mustImpl(t, types.FetchAdd(1), 0, 1, 2, []types.Invocation{faa1})
	for ops, wantErr := range map[int]bool{2: false, 3: true} {
		script := make([]types.Invocation, ops)
		for i := range script {
			script[i] = faa1
		}
		if _, err := explore.Walk(im, [][]types.Invocation{script}, explore.Schedule{}); (err != nil) != wantErr {
			t.Fatalf("%d operations on 2 slots: err = %v", ops, err)
		}
	}
}

func TestRejectsNondeterministicType(t *testing.T) {
	if _, err := MachineImplementation(types.OneUseBit(), types.OneUseUnset, 2, 8, nil); !errors.Is(err, ErrNondeterministic) {
		t.Fatalf("err = %v, want ErrNondeterministic", err)
	}
}

func TestRejectsTooManyProcs(t *testing.T) {
	if _, err := MachineImplementation(types.FetchAdd(2), 0, 3, 8, []types.Invocation{faa1}); err == nil {
		t.Fatal("3 processes on a 2-port type accepted")
	}
}

// TestReplicasConverge: after every process writes five times and then
// reads, each read returns its own process's replica, and replicas at the
// same log position hold the same state.
func TestReplicasConverge(t *testing.T) {
	const procs = 3
	alphabet := []types.Invocation{types.Read, types.Write(1), types.Write(2), types.Write(3)}
	im := mustImpl(t, types.Register(procs, 8), 0, procs, 64, alphabet)
	scripts := make([][]types.Invocation, procs)
	for p := range scripts {
		for i := 0; i < 5; i++ {
			scripts[p] = append(scripts[p], types.Write(p+1))
		}
		scripts[p] = append(scripts[p], types.Read)
	}
	for seed := int64(0); seed < 10; seed++ {
		out, err := explore.Walk(im, scripts, explore.Schedule{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mems := make([]umem, procs)
		for p := range mems {
			mems[p] = out.Mems[p].(umem)
			if got := out.Responses[p][5]; got != types.ValOf(mems[p].Replica.(int)) {
				t.Errorf("seed %d: p%d read %v but its replica holds %v", seed, p, got, mems[p].Replica)
			}
		}
		for a := 0; a < procs; a++ {
			for b := a + 1; b < procs; b++ {
				if mems[a].Pos == mems[b].Pos && mems[a].Replica != mems[b].Replica {
					t.Errorf("seed %d: replicas %d and %d at position %d disagree: %v vs %v",
						seed, a, b, mems[a].Pos, mems[a].Replica, mems[b].Replica)
				}
			}
		}
	}
}
