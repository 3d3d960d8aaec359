// Package core implements the constructive content of Theorem 5 of Bazzi,
// Neiger, and Peterson (PODC 1994): register elimination. Given a wait-free
// consensus implementation that uses objects of a type T with h_m(T) >= 2
// together with single-reader single-writer registers, the pipeline
// produces an implementation that uses objects of T only:
//
//  0. CompileSRSWRegisters (Section 4.1): compile every k-valued SRSW
//     register into k SRSW bits (Vidyasankar's construction).
//  1. BoundContext (Section 4.2): explore the implementation's execution trees
//     and extract, for every register b, exact bounds r_b and w_b on how
//     often b is read and written along any execution.
//  2. RegistersToOneUseBits (Section 4.3): replace each register by an
//     (w_b+1) x r_b array of one-use bits, splicing the paper's read and
//     write routines into every process's program.
//  3. Realize every one-use bit, on one of two routes:
//     OneUseBitsToType (Sections 5.1/5.2, T deterministic and non-trivial)
//     replaces it by a single object of T, initialized at the witness
//     state of a minimal non-trivial pair, with reads running the pair's
//     invocation sequence and writes its single distinguishing invocation;
//     OneUseBitsToConsensus (Section 5.3) replaces it by a private copy of
//     a register-free 2-process consensus implementation over T.
//
// EliminateRegistersContext and EliminateRegistersVia53Context run the
// whole chain on their route and model-check both endpoints, closing the
// loop on h_m^r(T) <= h_m(T).
package core

import (
	"fmt"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// MaxIntercepted bounds how many objects one transformation pass may
// intercept: their sub-machine memories live in a fixed-size comparable
// array inside each process's persistent memory.
const MaxIntercepted = 64

// route describes what happens to one object of the input implementation.
type route struct {
	// passthrough objects keep their declaration and are just re-indexed.
	passthrough bool
	newIdx      int
	// intercepted objects dispatch each operation name to a sub-machine
	// realizing it over the replacement objects.
	machines map[string]program.Machine
	memSlot  int
}

// interceptMem is a process's persistent memory after interception: the
// base machine's own memory plus one slot per intercepted object for the
// sub-machines' memories (for example the Section 4.3 row/column
// counters).
type interceptMem struct {
	Base any
	Subs [MaxIntercepted]any
}

// interceptState is the machine state of an intercepted process: the base
// machine's state, plus — while a sub-machine run is in flight — the sub
// state and which route it belongs to.
type interceptState struct {
	Base   any
	Sub    any
	SubObj int // input-object index being simulated; -1 if none
	SubOp  string
	Mems   [MaxIntercepted]any
}

// interceptor rewrites one process's machine so that accesses to
// intercepted objects run sub-machines instead.
type interceptor struct {
	base   program.Machine
	routes []route
}

var _ program.Machine = (*interceptor)(nil)

func (ic *interceptor) Start(inv types.Invocation, mem any) any {
	m, _ := mem.(interceptMem)
	return interceptState{
		Base:   ic.base.Start(inv, m.Base),
		SubObj: -1,
		Mems:   m.Subs,
	}
}

func (ic *interceptor) Next(state any, resp types.Response) (program.Action, any) {
	s, ok := state.(interceptState)
	if !ok {
		panic("core: interceptor driven with foreign state")
	}
	for {
		if s.SubObj >= 0 {
			r := ic.routes[s.SubObj]
			sub := r.machines[s.SubOp]
			act, next := sub.Next(s.Sub, resp)
			if act.Kind == program.KindInvoke {
				s.Sub = next
				return act, s
			}
			// Sub-machine finished: its response is the simulated
			// object's response, delivered to the base machine below.
			s.Mems[r.memSlot] = act.Mem
			s.Sub = nil
			s.SubObj = -1
			s.SubOp = ""
			resp = act.Resp
		}
		act, base := ic.base.Next(s.Base, resp)
		s.Base = base
		switch act.Kind {
		case program.KindReturn:
			return program.ReturnAction(act.Resp, interceptMem{Base: act.Mem, Subs: s.Mems}), s
		case program.KindInvoke:
			r := ic.routes[act.Obj]
			if r.passthrough {
				return program.InvokeAction(r.newIdx, act.Inv), s
			}
			sub, okOp := r.machines[act.Inv.Op]
			if !okOp {
				// The base machine used an operation the replacement does
				// not implement; surface it as an invalid object access.
				return program.InvokeAction(-1, act.Inv), s
			}
			s.SubObj = act.Obj
			s.SubOp = act.Inv.Op
			s.Sub = sub.Start(act.Inv, s.Mems[r.memSlot])
			resp = types.Response{}
		default:
			return act, s
		}
	}
}

// A replacement realizes one bit-like input object, read by readerProc
// and written by writerProc, from new objects whose first index is base:
// it returns their declarations and the reader's and the writer's
// sub-machines.
type replacement func(readerProc, writerProc, base int) (decls []program.ObjectDecl, read, write program.Machine, err error)

// replaceObjects applies a transformation pass: every input object in
// selected is replaced by its replacement, the others are kept and
// re-indexed. The replaced object's reader runs the read sub-machine, its
// writer the write sub-machine, and no other process touches it.
func replaceObjects(im *program.Implementation, name string, selected map[int]replacement) (*program.Implementation, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	if len(selected) > MaxIntercepted {
		return nil, fmt.Errorf("core: %d objects to intercept, limit %d", len(selected), MaxIntercepted)
	}
	var decls []program.ObjectDecl
	routes := make([][]route, im.Procs) // routes[p][i]: process p's route for input object i
	for p := range routes {
		routes[p] = make([]route, len(im.Objects))
	}
	memSlot := 0
	for i := range im.Objects {
		rep, ok := selected[i]
		if !ok {
			for p := range routes {
				routes[p][i] = route{passthrough: true, newIdx: len(decls)}
			}
			decls = append(decls, im.Objects[i])
			continue
		}
		readerProc, writerProc, err := bitParties(&im.Objects[i])
		if err != nil {
			return nil, err
		}
		repDecls, read, write, err := rep(readerProc, writerProc, len(decls))
		if err != nil {
			return nil, err
		}
		for p := range routes {
			routes[p][i] = route{memSlot: memSlot}
		}
		routes[readerProc][i].machines = map[string]program.Machine{types.OpRead: read}
		routes[writerProc][i].machines = map[string]program.Machine{types.OpWrite: write}
		memSlot++
		decls = append(decls, repDecls...)
	}
	machines := make([]program.Machine, im.Procs)
	for p := range machines {
		machines[p] = &interceptor{base: im.Machines[p], routes: routes[p]}
	}
	out := &program.Implementation{
		Name:     name,
		Target:   im.Target,
		Procs:    im.Procs,
		Objects:  decls,
		Machines: machines,
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: transformed implementation invalid: %w", err)
	}
	return out, nil
}
