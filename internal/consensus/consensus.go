// Package consensus is a library of wait-free binary consensus protocols,
// written as implementations over the type zoo (packages types and
// program). These are the canonical protocols of Herlihy's hierarchy that
// Bazzi, Neiger, and Peterson's audience has in mind, and all but two are
// built by one of two builders, one per protocol shape:
//
//   - TwoProcess builds the register-using announce/elect/adopt shape:
//     each process announces its proposal in a single-reader single-writer
//     bit, elects a winner through one or more accesses to an election
//     object (an Election), and adopts the winner's announcement if it
//     lost. These are the inputs to the Theorem 5 register-elimination
//     pipeline (package core).
//   - singleObject builds the register-free shape: each process runs a
//     fixed sequence of accesses to one shared object, built from its
//     proposal, and decides on the last response. These (compare-and-swap,
//     sticky cell, ...) are what the pipeline's outputs look like by
//     construction.
//
// NaiveRegister2 (a deliberately incorrect register-only protocol) and
// CASRegister3 (the 3-process register-using input) are written out by
// hand.
package consensus

import (
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// electionState is the comparable machine state of the announce/elect/
// adopt protocols.
type electionState struct {
	PC int
	V  int
}

// Election describes the winner-election phase of a 2-process protocol:
// the spec and initial state of the election object, how often each
// process accesses it, the invocation of each access, and the predicate
// recognizing a winning response.
type Election struct {
	Name string
	Spec *types.Spec
	Init types.State
	// Accesses is the number of election accesses each process makes;
	// zero means one.
	Accesses int
	// Inv yields process p's election access i when proposing v.
	Inv func(p, i, v int) types.Invocation
	// Won reports whether the response to process p's access i means p
	// won. A process that has not won after its last access lost.
	Won func(p, i int, r types.Response) bool
}

// Object indices of the 2-process election protocols.
const (
	electObj   = 0
	prefer0Obj = 1
	prefer1Obj = 2
)

// TwoProcess builds the 2-process announce/elect/adopt consensus
// implementation for the given election: process p writes its proposal to
// its own SRSW prefer bit, performs the election accesses until one wins,
// and decides its own proposal if it won or the other's announcement if
// it lost.
func TwoProcess(e Election) *program.Implementation {
	accesses := max(e.Accesses, 1)
	machine := func(p int) program.Machine {
		own := prefer0Obj + p
		other := prefer0Obj + (1 - p)
		return program.FuncMachine{
			StartFn: func(inv types.Invocation, _ any) any {
				return electionState{PC: 0, V: inv.A}
			},
			// PC 1+i issues election access i and PC 2+i receives its
			// response; PC 2+accesses receives the other's announcement.
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				s := state.(electionState)
				switch {
				case s.PC == 0:
					return program.InvokeAction(own, types.Write(s.V)), electionState{PC: 1, V: s.V}
				case s.PC > 1+accesses:
					return program.ReturnAction(types.ValOf(resp.Val), nil), s
				case s.PC > 1 && e.Won(p, s.PC-2, resp):
					return program.ReturnAction(types.ValOf(s.V), nil), s
				case s.PC <= accesses:
					return program.InvokeAction(electObj, e.Inv(p, s.PC-1, s.V)), electionState{PC: s.PC + 1, V: s.V}
				}
				return program.InvokeAction(other, types.Read), electionState{PC: s.PC + 1, V: s.V}
			},
		}
	}
	return &program.Implementation{
		Name:   e.Name,
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "elect", Spec: e.Spec, Init: e.Init, PortOf: program.AllPorts(2)},
			// prefer0 is written by process 0 and read by process 1;
			// prefer1 symmetrically.
			{Name: "prefer0", Spec: types.SRSWBit(), Init: 0, PortOf: program.PairPorts(2, 1, 0)},
			{Name: "prefer1", Spec: types.SRSWBit(), Init: 0, PortOf: program.PairPorts(2, 0, 1)},
		},
		Machines: []program.Machine{machine(0), machine(1)},
	}
}

// singleAccess is an election whose one access is the same invocation for
// every process and proposal, won by the response won.
func singleAccess(name string, spec *types.Spec, init types.State, inv types.Invocation, won types.Response) Election {
	return Election{
		Name: name,
		Spec: spec,
		Init: init,
		Inv:  func(_, _, _ int) types.Invocation { return inv },
		Won:  func(_, _ int, r types.Response) bool { return r == won },
	}
}

// TAS2 is 2-process consensus from one test-and-set bit plus two SRSW
// bits: the first test-and-set wins.
func TAS2() *program.Implementation {
	return TwoProcess(singleAccess("tas-2consensus", types.TestAndSet(2), 0, types.TAS, types.ValOf(0)))
}

// Queue2 is 2-process consensus from one FIFO queue (initialized with a
// single token) plus two SRSW bits: the process that dequeues the token
// wins; the other finds the queue empty.
func Queue2() *program.Implementation {
	return TwoProcess(singleAccess("queue-2consensus", types.Queue(2, 2, 2), types.QueueState(1), types.Deq, types.ValOf(1)))
}

// Stack2 is 2-process consensus from one stack (initialized with a single
// token) plus two SRSW bits.
func Stack2() *program.Implementation {
	return TwoProcess(singleAccess("stack-2consensus", types.Stack(2, 2, 2), types.QueueState(1), types.Pop, types.ValOf(1)))
}

// FAA2 is 2-process consensus from one fetch-and-add counter plus two SRSW
// bits: the process that observes 0 when adding 1 wins.
func FAA2() *program.Implementation {
	return TwoProcess(singleAccess("faa-2consensus", types.FetchAdd(2), 0, types.Inv(types.OpFAA, 1), types.ValOf(0)))
}

// Swap2 is 2-process consensus from one swap register plus two SRSW bits:
// the process whose swap(1) returns the initial 0 wins.
func Swap2() *program.Implementation {
	return TwoProcess(singleAccess("swap-2consensus", types.Swap(2, 2), 0, types.Inv(types.OpSwap, 1), types.ValOf(0)))
}

// WeakLeader2 is 2-process consensus from one nondeterministic WeakLeader
// object plus two SRSW bits, witnessing h_m^r(WeakLeader) >= 2 (Section 6
// context: Jayanti's separation of h_m from h_m^r needs such a
// nondeterministic type).
//
// Because the adversary chooses which of the object's first two accesses
// wins, a process that accesses the object once can lose before the
// eventual winner has announced anything (the naive announce/elect/adopt
// pattern is incorrect here — the execution-tree explorer exhibits the
// counterexample). Instead each process accesses the object twice:
//
//   - Exactly one of the first two accesses overall wins, so exactly one
//     process ever sees a win: a unique leader is always elected.
//   - A process that loses both its accesses made the second of them as
//     access #3 or later, so the winner's winning access — which is among
//     accesses #1-#2 and is preceded by the winner's announcement —
//     happened strictly earlier. The loser therefore reliably reads the
//     winner's announcement.
func WeakLeader2() *program.Implementation {
	return TwoProcess(Election{
		Name:     "weakleader-2consensus",
		Spec:     types.WeakLeader(2),
		Init:     0,
		Accesses: 2,
		Inv:      func(_, _, _ int) types.Invocation { return types.TAS },
		Won:      func(_, _ int, r types.Response) bool { return r.Label == types.LabelWin },
	})
}

// NoisySticky2R is an (artificially) register-using 2-process consensus
// protocol over the nondeterministic noisy-sticky type: the usual
// announce/elect/adopt shape with the sticky election (stick own id, then
// read the cell; the process whose id stuck won). It is the input for
// demonstrating the Theorem 5 pipeline's h_m >= 2 route: its registers are
// eliminated via one-use bits realized from the REGISTER-FREE NoisySticky2
// consensus substrate (Section 5.3), since the type's nondeterminism rules
// out the Section 5.2 witness machinery.
func NoisySticky2R() *program.Implementation {
	return TwoProcess(Election{
		Name:     "noisysticky-2consensus-r",
		Spec:     types.NoisySticky(2, 2),
		Init:     types.StickyUnset,
		Accesses: 2,
		Inv: func(p, i, _ int) types.Invocation {
			if i == 0 {
				return types.Inv(types.OpStick, p)
			}
			return types.Read
		},
		Won: func(p, i int, r types.Response) bool { return i == 1 && r.Val == p },
	})
}

// casState is the machine state of the single-object protocols.
type casState struct {
	PC int
	V  int
}

// singleObject builds register-free consensus for procs processes from the
// one object obj, shared on every port: a process proposing v performs
// access(0, v), ..., access(accesses-1, v) in order and decides
// decide(v, r) on the last response r.
func singleObject(name string, procs int, obj program.ObjectDecl, accesses int,
	access func(i, v int) types.Invocation, decide func(v int, r types.Response) int) *program.Implementation {
	machine := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any {
			return casState{PC: 0, V: inv.A}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(casState)
			if s.PC < accesses {
				return program.InvokeAction(0, access(s.PC, s.V)), casState{PC: s.PC + 1, V: s.V}
			}
			return program.ReturnAction(types.ValOf(decide(s.V, resp)), nil), s
		},
	}
	machines := make([]program.Machine, procs)
	for p := range machines {
		machines[p] = machine
	}
	obj.PortOf = program.AllPorts(procs)
	return &program.Implementation{
		Name:     name,
		Target:   types.Consensus(procs),
		Procs:    procs,
		Objects:  []program.ObjectDecl{obj},
		Machines: machines,
	}
}

// putThenRead is the access sequence of the protocols that install the
// proposal with op and then read the object's first installed value with
// read, which is the decision.
func putThenRead(op func(v int) types.Invocation, read types.Invocation) func(i, v int) types.Invocation {
	return func(i, v int) types.Invocation {
		if i == 0 {
			return op(v)
		}
		return read
	}
}

// decideResponse decides the value of the last response.
func decideResponse(_ int, r types.Response) int { return r.Val }

// stick is the sticky cell's installing invocation.
func stick(v int) types.Invocation { return types.Inv(types.OpStick, v) }

// casBottom is the "undecided" value of the CAS protocol's object.
const casBottom = 2

// CAS builds register-free n-process consensus from a single
// compare-and-swap object: cas(bottom, v) and decide the object's first
// installed value.
func CAS(procs int) *program.Implementation {
	return singleObject("cas-consensus", procs,
		program.ObjectDecl{Name: "cas", Spec: types.CompareSwap(procs, 3), Init: casBottom}, 1,
		func(_, v int) types.Invocation { return types.Inv(types.OpCAS, casBottom, v) },
		func(v int, r types.Response) int {
			if r.Val == casBottom {
				return v
			}
			return r.Val
		})
}

// Sticky builds register-free n-process consensus from a single sticky
// cell: stick the proposal, then read the cell's fixed value.
func Sticky(procs int) *program.Implementation {
	return singleObject("sticky-consensus", procs,
		program.ObjectDecl{Name: "sticky", Spec: types.StickyCell(procs, 2), Init: types.StickyUnset}, 2,
		putThenRead(stick, types.Read), decideResponse)
}

// AugQueue builds register-free n-process consensus from a single
// augmented (peekable) queue: enqueue the proposal, then peek — the first
// enqueued proposal is every process's decision (Herlihy's consensus-
// number-infinity example).
func AugQueue(procs int) *program.Implementation {
	return singleObject("augqueue-consensus", procs,
		program.ObjectDecl{Name: "augq", Spec: types.AugmentedQueue(procs, 2, procs), Init: types.QueueState()}, 2,
		putThenRead(types.Enq, types.Peek), decideResponse)
}

// FetchCons builds register-free n-process consensus from a single
// fetch-and-cons object, with ONE access per process: cons the proposal;
// if the previous list was empty you were first (decide your own value),
// otherwise the first-ever consed element — the tail of the returned
// list — is the winner's proposal.
func FetchCons(procs int) *program.Implementation {
	return singleObject("fetchcons-consensus", procs,
		program.ObjectDecl{Name: "list", Spec: types.FetchAndCons(procs, 2, procs), Init: ""}, 1,
		func(_, v int) types.Invocation { return types.Cons(v) },
		func(v int, r types.Response) int {
			prev := types.DecodeList(r.Val)
			if len(prev) == 0 {
				return v
			}
			return prev[len(prev)-1]
		})
}

// NoisySticky2 builds register-free 2-process consensus from a single
// NONDETERMINISTIC noisy-sticky cell: stick the proposal, then read — the
// cell is faithful once stuck, so the adversarial unstuck reads are never
// exercised. It witnesses h_m(NoisySticky) >= 2 and is the substrate for
// the Theorem 5 third-case pipeline (Section 5.3).
func NoisySticky2() *program.Implementation {
	return singleObject("noisysticky-consensus", 2,
		program.ObjectDecl{Name: "noisy", Spec: types.NoisySticky(2, 2), Init: types.StickyUnset}, 2,
		putThenRead(stick, types.Read), decideResponse)
}

// NaiveRegister2 is a deliberately incorrect 2-process protocol over
// registers only (announce, read the other, decide the minimum announced
// value). Registers cannot solve 2-process consensus (FLP/LA/CIL, cited in
// the paper's Theorem 5 proof); the explorer exhibits the agreement
// violation. It is used by tests, examples, and documentation.
func NaiveRegister2() *program.Implementation {
	machine := func(p int) program.Machine {
		own := p
		other := 1 - p
		return program.FuncMachine{
			StartFn: func(inv types.Invocation, _ any) any {
				return electionState{PC: 0, V: inv.A}
			},
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				s := state.(electionState)
				switch s.PC {
				case 0:
					// Announce proposal+1 (0 means "no announcement yet").
					return program.InvokeAction(own, types.Write(s.V+1)), electionState{PC: 1, V: s.V}
				case 1:
					return program.InvokeAction(other, types.Read), electionState{PC: 2, V: s.V}
				default:
					if resp.Val == 0 {
						// Other process not announced: decide own value.
						return program.ReturnAction(types.ValOf(s.V), nil), s
					}
					otherV := resp.Val - 1
					if otherV < s.V {
						return program.ReturnAction(types.ValOf(otherV), nil), s
					}
					return program.ReturnAction(types.ValOf(s.V), nil), s
				}
			},
		}
	}
	return &program.Implementation{
		Name:   "naive-register-2consensus",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "ann0", Spec: types.Register(2, 3), Init: 0, PortOf: program.AllPorts(2)},
			{Name: "ann1", Spec: types.Register(2, 3), Init: 0, PortOf: program.AllPorts(2)},
		},
		Machines: []program.Machine{machine(0), machine(1)},
	}
}

// RegisterUsing lists the 2-process protocols that use SRSW-bit registers
// alongside one election object: the inputs of the Theorem 5 pipeline.
func RegisterUsing() []*program.Implementation {
	return []*program.Implementation{TAS2(), Queue2(), Stack2(), FAA2(), Swap2()}
}

// Corpus lists one instance of every built-in protocol at small sizes (2
// and 3 processes) — the seed set for cross-cutting explorer tests. All
// are correct except NaiveRegister2, which is included deliberately so
// checkers are exercised on a violating implementation too.
func Corpus() []*program.Implementation {
	return []*program.Implementation{
		TAS2(), Queue2(), Stack2(), FAA2(), Swap2(), WeakLeader2(),
		NoisySticky2(), NoisySticky2R(), NaiveRegister2(),
		CAS(2), Sticky(2), AugQueue(2), FetchCons(2),
		CAS(3), Sticky(3),
		CASRegister3(),
	}
}
