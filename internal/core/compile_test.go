package core

import (
	"context"
	"fmt"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/linearize"
	"waitfree/internal/multivalue"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// vidImpl builds a standalone 2-process implementation of a k-valued SRSW
// register over SRSW bits via the machine-level Vidyasankar compilation.
func vidImpl(t *testing.T, k, init int) *program.Implementation {
	t.Helper()
	base := &program.Implementation{
		Name:   "identity-srsw-register",
		Target: types.SRSWRegister(k),
		Procs:  2,
		Objects: []program.ObjectDecl{{
			Name: "reg", Spec: types.SRSWRegister(k), Init: init,
			PortOf: program.PairPorts(2, 0, 1),
		}},
		Machines: []program.Machine{forwardMachine(0), forwardMachine(0)},
	}
	out, err := CompileSRSWRegisters(base)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// forwardMachine forwards the target invocation to object obj and returns
// its response.
func forwardMachine(obj int) program.Machine {
	type st struct {
		PC   int
		Code int
	}
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any {
			code := -1
			if inv.Op == types.OpWrite {
				code = inv.A
			}
			return st{PC: 0, Code: code}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(st)
			if s.PC == 0 {
				inv := types.Read
				if s.Code >= 0 {
					inv = types.Write(s.Code)
				}
				return program.InvokeAction(obj, inv), st{PC: 1, Code: s.Code}
			}
			return program.ReturnAction(resp, nil), s
		},
	}
}

// TestCompiledRegisterSequential checks read-your-writes through the
// compiled Vidyasankar machines.
func TestCompiledRegisterSequential(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		for init := 0; init < k; init++ {
			im := vidImpl(t, k, init)
			states := im.InitialStates()
			res, err := program.Solo(im, states, 0, types.Read, nil, 100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resp != types.ValOf(init) {
				t.Fatalf("k=%d: initial read = %v, want val(%d)", k, res.Resp, init)
			}
			for v := 0; v < k; v++ {
				if _, err := program.Solo(im, states, 1, types.Write(v), nil, 100); err != nil {
					t.Fatal(err)
				}
				res, err := program.Solo(im, states, 0, types.Read, nil, 100)
				if err != nil {
					t.Fatal(err)
				}
				if res.Resp != types.ValOf(v) {
					t.Fatalf("k=%d: read after write(%d) = %v", k, v, res.Resp)
				}
			}
		}
	}
}

// TestCompiledRegisterLinearizable explores all interleavings of reads and
// writes through the compiled machines and checks linearizability against
// the k-valued SRSW register.
func TestCompiledRegisterLinearizable(t *testing.T) {
	cases := []struct {
		k, init int
		writes  []int
		reads   int
	}{
		{3, 0, []int{2, 1}, 2},
		{4, 1, []int{3}, 2},
		{2, 0, []int{1, 0}, 2},
	}
	for _, tc := range cases {
		im := vidImpl(t, tc.k, tc.init)
		readScript := make([]types.Invocation, tc.reads)
		for i := range readScript {
			readScript[i] = types.Read
		}
		writeScript := make([]types.Invocation, len(tc.writes))
		for i, v := range tc.writes {
			writeScript[i] = types.Write(v)
		}
		opts := explore.Options{
			RecordHistory: true,
			OnLeaf: func(l *explore.Leaf) error {
				if _, err := linearize.Check(types.SRSWRegister(tc.k), tc.init, l.History()); err != nil {
					return fmt.Errorf("not linearizable: %w\n%v", err, l.History())
				}
				return nil
			},
		}
		res, err := explore.RunContext(context.Background(), im, [][]types.Invocation{readScript, writeScript}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("k=%d writes=%v: %v", tc.k, tc.writes, res.Violation)
		}
	}
}

// TestMultiValuedEliminationEndToEnd is the grand composition: 4-valued
// 2-process consensus built over k-valued SRSW registers and binary
// consensus objects is reduced — registers to bits (Section 4.1 as
// machines), bits to one-use bits (Section 4.3), one-use bits to
// consensus-type objects (Section 5.2) — into an implementation whose
// objects are ALL of the binary consensus type, then verified over all 16
// proposal vectors.
func TestMultiValuedEliminationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("large exhaustive exploration")
	}
	input := multivalue.FromBinarySRSW(4)
	report, err := EliminateRegistersContext(context.Background(), input, explore.Options{Memoize: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OutputReport.OK() {
		t.Fatalf("output failed: %s", report.OutputReport.Summary())
	}
	if report.TypeName != "consensus" {
		t.Errorf("inferred type %q, want consensus", report.TypeName)
	}
	for i := range report.Output.Objects {
		if got := report.Output.Objects[i].Spec.Name; got != "consensus" {
			t.Errorf("object %d has type %q", i, got)
		}
	}
	// 2 registers of 5 values -> 10 bits; bounds then give the one-use
	// bit count; just pin the invariants rather than exact numbers.
	if report.RegistersEliminated != 10 {
		t.Errorf("registers eliminated = %d, want 10 (2 registers x 5 unary bits)", report.RegistersEliminated)
	}
	if report.OneUseBitsUsed <= report.RegistersEliminated {
		t.Errorf("one-use bits = %d, expected more than %d",
			report.OneUseBitsUsed, report.RegistersEliminated)
	}
	t.Logf("multi-valued elimination: %s", report.Summary())
}
