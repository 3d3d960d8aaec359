package universal

import (
	"context"
	"fmt"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// checkUniversalExhaustively explores every interleaving of the scripts
// and checks each leaf history against the target type.
func checkUniversalExhaustively(t *testing.T, target *types.Spec, init types.State, alphabet []types.Invocation, scripts [][]types.Invocation) *explore.Result {
	t.Helper()
	totalOps := 0
	for _, s := range scripts {
		totalOps += len(s)
	}
	im, err := MachineImplementation(target, init, len(scripts), totalOps, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	opts := explore.Options{
		RecordHistory: true,
		OnLeaf: func(l *explore.Leaf) error {
			if _, err := linearize.Check(target, init, l.History()); err != nil {
				return fmt.Errorf("leaf not linearizable: %w\n%v", err, l.History())
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

// TestUniversalMachinesRegisterExhaustive verifies the universal
// construction implements a register linearizably under ALL interleavings
// of a write racing two reads.
func TestUniversalMachinesRegisterExhaustive(t *testing.T) {
	target := types.Register(2, 2)
	alphabet := []types.Invocation{types.Read, types.Write(0), types.Write(1)}
	scripts := [][]types.Invocation{
		{types.Write(1)},
		{types.Read, types.Read},
	}
	res := checkUniversalExhaustively(t, target, 0, alphabet, scripts)
	if res.Leaves == 0 {
		t.Fatal("no executions explored")
	}
}

// TestUniversalMachinesCounterExhaustive verifies wait-free exactness of a
// universal fetch-and-add under all interleavings of two increments.
func TestUniversalMachinesCounterExhaustive(t *testing.T) {
	target := types.FetchAdd(2)
	alphabet := []types.Invocation{types.Inv(types.OpFAA, 1)}
	scripts := [][]types.Invocation{
		{types.Inv(types.OpFAA, 1)},
		{types.Inv(types.OpFAA, 1)},
	}
	checkUniversalExhaustively(t, target, 0, alphabet, scripts)
}

// TestUniversalMachinesQueueExhaustive verifies a universal queue on an
// enqueue racing a dequeue.
func TestUniversalMachinesQueueExhaustive(t *testing.T) {
	target := types.Queue(2, 2, 4)
	alphabet := []types.Invocation{types.Enq(1), types.Deq}
	scripts := [][]types.Invocation{
		{types.Enq(1)},
		{types.Deq},
	}
	checkUniversalExhaustively(t, target, types.QueueState(), alphabet, scripts)
}

// TestUniversalMachinesSolo checks sequential behavior through the Solo
// driver, including persistent replica state across operations.
func TestUniversalMachinesSolo(t *testing.T) {
	target := types.FetchAdd(2)
	alphabet := []types.Invocation{types.Inv(types.OpFAA, 1)}
	im, err := MachineImplementation(target, 0, 2, 8, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	states := im.InitialStates()
	var mem any
	for want := 0; want < 3; want++ {
		res, err := program.Solo(im, states, 0, types.Inv(types.OpFAA, 1), mem, 100)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resp != types.ValOf(want) {
			t.Fatalf("faa #%d = %v", want, res.Resp)
		}
		mem = res.Mem
	}
}

func TestUniversalMachinesRejectsBadInputs(t *testing.T) {
	if _, err := MachineImplementation(types.OneUseBit(), types.OneUseUnset, 2, 4, nil); err == nil {
		t.Error("nondeterministic target accepted")
	}
	if _, err := MachineImplementation(types.FetchAdd(2), 0, 3, 4, nil); err == nil {
		t.Error("too many processes accepted")
	}
	// The machines track per-process progress for at most 8 processes.
	if _, err := MachineImplementation(types.FetchAdd(9), 0, 9, 9, []types.Invocation{types.Inv(types.OpFAA, 1)}); err == nil {
		t.Error("9 processes accepted")
	}
}

// TestUniversalMachinesHelping forces the helping path: a process that
// never gets scheduled between announce and the slot race still has its
// operation completed... more precisely, the explorer covers schedules
// where the slot's turn-holder is helped by the other process, and the
// histories remain linearizable (covered by the exhaustive tests above);
// here we pin that the announcement registers are written exactly once per
// operation.
func TestUniversalMachinesHelping(t *testing.T) {
	target := types.Register(2, 2)
	alphabet := []types.Invocation{types.Read, types.Write(0), types.Write(1)}
	im, err := MachineImplementation(target, 0, 2, 2, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	scripts := [][]types.Invocation{{types.Write(1)}, {types.Read}}
	res, err := explore.RunContext(context.Background(), im, scripts, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatal(res.Violation)
	}
	for p := 0; p < 2; p++ {
		if got := res.OpAccess[p][types.OpWrite]; got != 1 {
			t.Errorf("announce%d written %d times, want 1", p, got)
		}
	}
}
