package program

import (
	"errors"
	"fmt"

	"waitfree/internal/types"
)

// ErrStepBudget reports a machine that did not return within the solo
// driver's step budget (evidence against wait-freedom).
var ErrStepBudget = errors.New("program: machine exceeded step budget")

// SoloResult is the outcome of driving one process alone.
type SoloResult struct {
	Resp  types.Response // target response
	Steps int            // object accesses performed
	Mem   any            // persistent memory after the operation
}

// Solo drives process p's machine for one target invocation with no other
// process taking steps, mutating the supplied object states in place. It
// resolves nondeterministic object transitions by taking the first allowed
// branch and enforces a step budget. Solo is the reference driver used by
// unit tests and by sequential sanity checks; concurrent execution lives in
// package explore (RunContext enumerates interleavings, Walk samples one).
//
// Solo validates only what a solo run reads: the machine count up front,
// and at each access the declaration of the accessed object and p's port
// on it (Validate's errors, without its cost on implementations with tens
// of thousands of objects).
func Solo(im *Implementation, states []types.State, p int, inv types.Invocation, mem any, budget int) (SoloResult, error) {
	if err := im.machineCountError(); err != nil {
		return SoloResult{}, err
	}
	if p < 0 || p >= im.Procs {
		return SoloResult{}, fmt.Errorf("program: process %d out of range", p)
	}
	if len(states) != len(im.Objects) {
		return SoloResult{}, fmt.Errorf("program: %d states for %d objects", len(states), len(im.Objects))
	}
	m := im.Machines[p]
	st := m.Start(inv, mem)
	resp := types.Response{}
	for steps := 0; ; steps++ {
		if steps > budget {
			return SoloResult{}, fmt.Errorf("%w: process %d, %v after %d steps", ErrStepBudget, p, inv, budget)
		}
		act, next := m.Next(st, resp)
		st = next
		switch act.Kind {
		case KindReturn:
			return SoloResult{Resp: act.Resp, Steps: steps, Mem: act.Mem}, nil
		case KindInvoke:
			if act.Obj < 0 || act.Obj >= len(im.Objects) {
				return SoloResult{}, fmt.Errorf("program: process %d invoked unknown object %d", p, act.Obj)
			}
			if err := im.declError(act.Obj); err != nil {
				return SoloResult{}, err
			}
			if err := im.portError(act.Obj, p); err != nil {
				return SoloResult{}, err
			}
			decl := &im.Objects[act.Obj]
			port := decl.PortOf[p]
			if port == 0 {
				return SoloResult{}, fmt.Errorf("program: process %d has no port on object %d (%s)", p, act.Obj, decl.Name)
			}
			ts, err := decl.Spec.Apply(states[act.Obj], port, act.Inv)
			if err != nil {
				return SoloResult{}, fmt.Errorf("process %d step %d: %w", p, steps, err)
			}
			states[act.Obj] = ts[0].Next
			resp = ts[0].Resp
		default:
			return SoloResult{}, fmt.Errorf("program: process %d produced invalid action kind %d", p, act.Kind)
		}
	}
}
