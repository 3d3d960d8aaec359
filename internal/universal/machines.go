// Package universal implements Herlihy's universal construction: a
// wait-free linearizable implementation of ANY deterministic sequential
// type for n processes, built from consensus objects. It is the result
// that motivates the whole hierarchy program reproduced by this repository
// (Section 2.3 of Bazzi, Neiger, and Peterson): consensus number n means
// every type is implementable for n processes.
//
// The construction is the classic announce-and-help form: processes agree,
// slot by slot, on a log of operations using one consensus object per
// slot. Before competing, a process announces its pending operation; when
// competing for slot s, every process first tries to push the operation
// announced by process s mod n, which guarantees that an announced
// operation is decided within n slots of its announcement — wait-freedom,
// not mere lock-freedom. Each process replays the agreed log against a
// private replica to compute its responses.
//
// The construction is expressed as step machines (package program), so
// the execution-tree explorer verifies small instances EXHAUSTIVELY —
// every interleaving of every operation script — and explore.Walk samples
// seeded executions of large instances, recording histories for package
// linearize.
//
// Objects: one announcement register per process (holding that process's
// current operation, encoded as an integer) and one multi-valued consensus
// object per log slot (agreeing on which announced operation fills the
// slot). Each process replays the agreed log against a private replica
// carried in its persistent memory.
//
// Operation encoding: a process's k-th operation (1-based) with target-
// invocation index i (into the implementation's fixed invocation alphabet)
// is encoded as (k * len(alphabet)) + i; 0 means "nothing announced". The
// consensus objects agree on (proc, encoded op) pairs packed the same way.
package universal

import (
	"errors"
	"fmt"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// ErrNondeterministic: replicas can only replay deterministic types.
var ErrNondeterministic = errors.New("universal: type must be deterministic")

// MachineImplementation builds a universal implementation of the target
// spec, starting in state init, for procs processes (at most 8). Its log
// has slots slots, one per operation of all processes combined; a run
// that needs more fails loudly. alphabet fixes the invocation encoding
// and must cover every invocation the scripts use.
func MachineImplementation(target *types.Spec, init types.State, procs, slots int, alphabet []types.Invocation) (*program.Implementation, error) {
	if !target.Deterministic {
		return nil, fmt.Errorf("%w: %q", ErrNondeterministic, target.Name)
	}
	if procs < 1 || procs > target.Ports {
		return nil, fmt.Errorf("universal: %d processes for a %d-port type", procs, target.Ports)
	}
	if maxProcs := len(umem{}.Applied); procs > maxProcs {
		return nil, fmt.Errorf("universal: %d processes; the machines support at most %d", procs, maxProcs)
	}
	nAlpha := len(alphabet)
	// Encoded announcement values: seq in 1..slots, invIdx in 0..nAlpha-1,
	// plus 0 for "none": values 0..slots*nAlpha+nAlpha-1.
	annRange := (slots+1)*nAlpha + 1
	// Consensus cell values: proc * annRange + encodedOp.
	cellRange := procs * annRange

	objects := make([]program.ObjectDecl, 0, procs+slots)
	annSpec := types.Register(procs, annRange)
	for p := 0; p < procs; p++ {
		objects = append(objects, program.ObjectDecl{
			Name:   fmt.Sprintf("announce%d", p),
			Spec:   annSpec,
			Init:   0,
			PortOf: program.AllPorts(procs),
		})
	}
	slotSpec := types.MultiConsensus(procs, cellRange)
	for s := 0; s < slots; s++ {
		objects = append(objects, program.ObjectDecl{
			Name:   fmt.Sprintf("slot%d", s),
			Spec:   slotSpec,
			Init:   types.ConsensusUndecided,
			PortOf: program.AllPorts(procs),
		})
	}

	machines := make([]program.Machine, procs)
	for p := 0; p < procs; p++ {
		machines[p] = universalMachine(target, init, p, procs, slots, alphabet, annRange)
	}
	return &program.Implementation{
		Name:     fmt.Sprintf("universal-%s(n=%d,slots=%d)", target.Name, procs, slots),
		Target:   target,
		Procs:    procs,
		Objects:  objects,
		Machines: machines,
	}, nil
}

// umem is the persistent memory of a universal machine: the replica, the
// log position, per-process applied sequence numbers (bounded to 8
// processes for comparability), and the own-operation counter.
type umem struct {
	Replica types.State
	Pos     int
	Applied [8]int
	Seq     int
}

// ustate is the per-operation machine state.
type ustate struct {
	Mem     umem
	PC      int // 0 = announce; 1 = read help target; 2 = propose; 3 = applied decided op
	MyEnc   int // own encoded operation
	MyInv   int // own invocation index
	Help    int // encoded op read from the help target's announcement
	HelpID  int // process id of the help target
	Decided int // decided (proc, encodedOp) pair
	Resp    types.Response
	Done    bool
}

func universalMachine(target *types.Spec, init types.State, p, procs, slots int, alphabet []types.Invocation, annRange int) program.Machine {
	nAlpha := len(alphabet)
	annObj := func(q int) int { return q }
	slotObj := func(s int) int { return procs + s }
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, mem any) any {
			m, ok := mem.(umem)
			if !ok {
				m = umem{Replica: init}
			}
			invIdx := -1
			for i, a := range alphabet {
				if a == inv {
					invIdx = i
					break
				}
			}
			m.Seq++
			return ustate{
				Mem:   m,
				MyInv: invIdx,
				MyEnc: m.Seq*nAlpha + invIdx,
			}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s, ok := state.(ustate)
			if !ok {
				panic("universal: machine driven with foreign state")
			}
			if s.MyInv < 0 {
				// Invocation outside the alphabet: fail loudly via an
				// invalid object access.
				return program.InvokeAction(-1, types.Read), s
			}
			for {
				switch s.PC {
				case 0:
					// Announce the operation.
					s.PC = 1
					return program.InvokeAction(annObj(p), types.Write(s.MyEnc)), s
				case 1:
					if s.Done {
						return program.ReturnAction(s.Resp, s.Mem), s
					}
					if s.Mem.Pos >= slots {
						// Log full: fail loudly.
						return program.InvokeAction(-1, types.Read), s
					}
					// Help first: read the announcement of the process
					// whose turn this slot is.
					s.HelpID = s.Mem.Pos % procs
					s.PC = 2
					return program.InvokeAction(annObj(s.HelpID), types.Read), s
				case 2:
					// Choose a proposal: the helped operation if pending,
					// else our own.
					s.Help = resp.Val
					proposal := p*annRange + s.MyEnc
					if s.Help != 0 {
						helpSeq := s.Help / nAlpha
						if helpSeq > s.Mem.Applied[s.HelpID] {
							proposal = s.HelpID*annRange + s.Help
						}
					}
					s.PC = 3
					return program.InvokeAction(slotObj(s.Mem.Pos), types.Propose(proposal)), s
				case 3:
					// Apply the decided operation to the replica.
					s.Decided = resp.Val
					winProc := s.Decided / annRange
					winEnc := s.Decided % annRange
					winSeq := winEnc / nAlpha
					winInv := winEnc % nAlpha
					next, r, err := target.DetApply(s.Mem.Replica, winProc+1, alphabet[winInv])
					if err != nil {
						return program.InvokeAction(-1, types.Read), s
					}
					s.Mem.Replica = next
					s.Mem.Applied[winProc] = winSeq
					s.Mem.Pos++
					if winProc == p && winEnc == s.MyEnc {
						s.Resp = r
						s.Done = true
					}
					s.PC = 1
				default:
					return program.InvokeAction(-1, types.Read), s
				}
			}
		},
	}
}
