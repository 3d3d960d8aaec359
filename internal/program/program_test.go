package program

import (
	"errors"
	"strings"
	"testing"

	"waitfree/internal/types"
)

// faaTwiceState is the comparable state of the test machine below.
type faaTwiceState struct {
	PC    int
	First int
}

// faaTwiceMachine increments a fetch-and-add object twice and returns the
// sum of the two observed values.
var faaTwiceMachine = FuncMachine{
	StartFn: func(_ types.Invocation, _ any) any { return faaTwiceState{} },
	NextFn: func(state any, resp types.Response) (Action, any) {
		s := state.(faaTwiceState)
		switch s.PC {
		case 0:
			return InvokeAction(0, types.Inv(types.OpFAA, 1)), faaTwiceState{PC: 1}
		case 1:
			return InvokeAction(0, types.Inv(types.OpFAA, 1)), faaTwiceState{PC: 2, First: resp.Val}
		default:
			return ReturnAction(types.ValOf(s.First+resp.Val), nil), s
		}
	},
}

func faaImpl() *Implementation {
	return &Implementation{
		Name:   "faa-twice",
		Target: types.Register(1, 100),
		Procs:  1,
		Objects: []ObjectDecl{{
			Name:   "ctr",
			Spec:   types.FetchAdd(1),
			Init:   0,
			PortOf: []int{1},
		}},
		Machines: []Machine{faaTwiceMachine},
	}
}

func TestSoloDrivesMachine(t *testing.T) {
	im := faaImpl()
	states := im.InitialStates()
	res, err := Solo(im, states, 0, types.Read, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp != types.ValOf(1) { // observed 0 then 1
		t.Errorf("response = %v, want val(1)", res.Resp)
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2", res.Steps)
	}
	if states[0] != 2 {
		t.Errorf("final counter state = %v, want 2", states[0])
	}
}

func TestSoloPersistentMemory(t *testing.T) {
	// A machine that counts its own target operations in persistent memory
	// and answers with the count.
	type memState struct{ n int }
	m := FuncMachine{
		StartFn: func(_ types.Invocation, mem any) any {
			n := 0
			if prev, ok := mem.(memState); ok {
				n = prev.n
			}
			return memState{n: n + 1}
		},
		NextFn: func(state any, _ types.Response) (Action, any) {
			s := state.(memState)
			return ReturnAction(types.ValOf(s.n), s), state
		},
	}
	im := &Implementation{
		Name:     "op-counter",
		Target:   types.Register(1, 100),
		Procs:    1,
		Objects:  nil,
		Machines: []Machine{m},
	}
	states := im.InitialStates()
	var mem any
	for want := 1; want <= 3; want++ {
		res, err := Solo(im, states, 0, types.Read, mem, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resp != types.ValOf(want) {
			t.Fatalf("operation %d answered %v", want, res.Resp)
		}
		mem = res.Mem
	}
}

func TestSoloStepBudget(t *testing.T) {
	// A machine that never returns.
	type spin struct{}
	m := FuncMachine{
		StartFn: func(_ types.Invocation, _ any) any { return spin{} },
		NextFn: func(state any, _ types.Response) (Action, any) {
			return InvokeAction(0, types.Inv(types.OpFAA, 0)), state
		},
	}
	im := faaImpl()
	im.Machines = []Machine{m}
	_, err := Solo(im, im.InitialStates(), 0, types.Read, nil, 5)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
}

func TestConstMachine(t *testing.T) {
	im := &Implementation{
		Name:     "const",
		Target:   types.Register(1, 2),
		Procs:    1,
		Machines: []Machine{ConstMachine(types.OK)},
	}
	res, err := Solo(im, im.InitialStates(), 0, types.Read, "memo", 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp != types.OK || res.Steps != 0 {
		t.Errorf("const machine: resp=%v steps=%d", res.Resp, res.Steps)
	}
	if res.Mem != "memo" {
		t.Errorf("const machine dropped memory: %v", res.Mem)
	}
}

// TestValidateCatchesBadPortAssignments: Validate refuses each malformed
// implementation, and Solo refuses those whose fault a solo run of
// process 0 reads (a shared port needs a second process to matter).
func TestValidateCatchesBadPortAssignments(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(im *Implementation)
		want   error
		solo   bool
	}{
		{"missing machines", func(im *Implementation) { im.Machines = nil }, ErrNoMachines, true},
		{"port out of range", func(im *Implementation) {
			im.Objects = []ObjectDecl{{Name: "bad", Spec: types.FetchAdd(1), Init: 0, PortOf: []int{7}}}
		}, ErrBadObjectID, true},
		{"shared port", func(im *Implementation) {
			im.Procs = 2
			im.Machines = []Machine{faaTwiceMachine, faaTwiceMachine}
			im.Objects = []ObjectDecl{{Name: "shared", Spec: types.FetchAdd(2), Init: 0, PortOf: []int{1, 1}}}
		}, ErrBadObjectID, false},
		{"short PortOf", func(im *Implementation) {
			im.Objects = []ObjectDecl{{Name: "short", Spec: types.FetchAdd(1), Init: 0, PortOf: nil}}
		}, ErrBadObjectID, true},
		{"no spec", func(im *Implementation) {
			im.Objects = []ObjectDecl{{Name: "nospec", Init: 0, PortOf: []int{1}}}
		}, ErrBadObjectID, true},
	}
	for _, tc := range cases {
		im := faaImpl()
		tc.mutate(im)
		if err := im.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate err = %v, want %v", tc.name, err, tc.want)
		}
		if !tc.solo {
			continue
		}
		if _, err := Solo(im, im.InitialStates(), 0, types.Read, nil, 10); !errors.Is(err, tc.want) {
			t.Errorf("%s: Solo err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestPortHelpers(t *testing.T) {
	if got := AllPorts(3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("AllPorts(3) = %v", got)
	}
	got := PairPorts(4, 2, 0)
	want := []int{2, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PairPorts = %v, want %v", got, want)
		}
	}
}

func TestActionString(t *testing.T) {
	if s := InvokeAction(2, types.Read).String(); !strings.Contains(s, "obj2.read") {
		t.Errorf("invoke action string = %q", s)
	}
	if s := ReturnAction(types.OK, nil).String(); !strings.Contains(s, "return ok") {
		t.Errorf("return action string = %q", s)
	}
}

func TestImplementationString(t *testing.T) {
	s := faaImpl().String()
	if !strings.Contains(s, "faa-twice") || !strings.Contains(s, "1 objects") {
		t.Errorf("String() = %q", s)
	}
}

func TestCountObjects(t *testing.T) {
	im := faaImpl()
	if n := im.CountObjects("fetch-and-add"); n != 1 {
		t.Errorf("CountObjects(faa) = %d", n)
	}
	if n := im.CountObjects("queue"); n != 0 {
		t.Errorf("CountObjects(queue) = %d", n)
	}
}
