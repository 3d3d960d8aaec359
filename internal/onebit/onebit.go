// Package onebit implements the one-use bit machinery at the heart of
// Bazzi, Neiger, and Peterson (PODC 1994):
//
//   - Section 3's one-use bit type itself (types.OneUseBit);
//   - Section 4.3's implementation of a bounded-use single-reader
//     single-writer bit from an (w+1) x r array of one-use bits, as step
//     machines (this file): the explorer checks small arrays exhaustively,
//     explore.Walk samples large ones, and the Theorem 5 pipeline
//     splices them into host implementations;
//   - Section 5.1/5.2's implementation of a one-use bit from one object of
//     any non-trivial deterministic type, driven by the witnesses found by
//     package hierarchy (fromtype.go);
//   - Section 5.3's implementation of a one-use bit from a 2-process
//     consensus implementation (fromconsensus.go).
package onebit

import (
	"fmt"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// Array locates the (w+1) x r one-use bits implementing one bounded-use
// SRSW bit inside an implementation's object table (Section 4.3). Rows are
// indexed 1..W+1 (one per write, plus the sentinel row that is never
// completely flipped), columns 1..R (one per read). All bits start UNSET.
type Array struct {
	// Base is the object index of bits[1,1]; the array occupies
	// (W+1)*R consecutive indices in row-major order.
	Base int
	// R and W are the read and write bounds of the implemented bit.
	R, W int
	// Init is the implemented bit's initial value v.
	Init int
}

// Size returns the number of one-use bits the array uses: (w+1)*r.
func (a Array) Size() int { return (a.W + 1) * a.R }

// Obj returns the object index of bits[i,j] (i in 1..W+1, j in 1..R).
// Out-of-range coordinates return -1, which drivers reject loudly; the
// machines below only produce them if the declared bounds are violated.
func (a Array) Obj(i, j int) int {
	if i < 1 || i > a.W+1 || j < 1 || j > a.R {
		return -1
	}
	return a.Base + (i-1)*a.R + (j - 1)
}

// Decls returns the array's object declarations for an implementation
// with the given total process count: every bit is a one-use bit in state
// UNSET, read by readerProc on port 1 and written by writerProc on port 2.
func (a Array) Decls(procs, readerProc, writerProc int) []program.ObjectDecl {
	decls := make([]program.ObjectDecl, 0, a.Size())
	for i := 1; i <= a.W+1; i++ {
		for j := 1; j <= a.R; j++ {
			decls = append(decls, program.ObjectDecl{
				Name:   fmt.Sprintf("bits[%d,%d]", i, j),
				Spec:   types.OneUseBit(),
				Init:   types.OneUseUnset,
				PortOf: program.PairPorts(procs, readerProc, writerProc),
			})
		}
	}
	return decls
}

// WriterMem is the writer's persistent state across write operations: the
// next row to flip and the bit's current value. The paper assumes the bit
// "is only written when its value is being changed"; WriterMachine
// enforces that by skipping writes of the current value, so arbitrary
// clients are supported.
type WriterMem struct {
	IW  int
	Cur int
}

// ReaderMem is the reader's persistent state across read operations: the
// first row not known to be completely flipped, and the next column.
type ReaderMem struct {
	IR, JR int
}

// writerState is the writer machine's per-operation state.
type writerState struct {
	Mem  WriterMem
	X    int // value being written
	J    int // next column to flip; 0 before the first flip
	Skip bool
}

// WriterMachine returns the Section 4.3 write routine over the array:
//
//	for j := 1 to r do bits[i_w, j] := 1
//	i_w := i_w + 1
//	return ok
//
// preceded by the value-change check that the paper assumes of its writer.
func WriterMachine(a Array) program.Machine {
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, mem any) any {
			m := decodeWriterMem(a, mem)
			return writerState{Mem: m, X: inv.A & 1, Skip: inv.A&1 == m.Cur}
		},
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			s, ok := state.(writerState)
			if !ok {
				panic("onebit: WriterMachine driven with foreign state")
			}
			if s.Skip {
				return program.ReturnAction(types.OK, s.Mem), s
			}
			if s.Mem.IW > a.W {
				// Write bound exhausted: row W+1 is the sentinel, never
				// flipped. Fail loudly via an invalid object access.
				return program.InvokeAction(-1, types.Write(1)), s
			}
			if s.J == a.R {
				// Row completely flipped: the logical write is done.
				return program.ReturnAction(types.OK, WriterMem{IW: s.Mem.IW + 1, Cur: s.X}), s
			}
			next := writerState{Mem: s.Mem, X: s.X, J: s.J + 1}
			return program.InvokeAction(a.Obj(s.Mem.IW, next.J), types.Write(1)), next
		},
	}
}

// readerState is the reader machine's per-operation state.
type readerState struct {
	Mem     ReaderMem
	Started bool
}

// ReaderMachine returns the Section 4.3 read routine over the array:
//
//	while bits[i_r, j_r] = 1 do i_r := i_r + 1
//	j_r := j_r + 1
//	return (v + (i_r - 1)) mod 2
//
// Each read uses a fresh column, so no one-use bit is ever read twice.
func ReaderMachine(a Array) program.Machine {
	return program.FuncMachine{
		StartFn: func(_ types.Invocation, mem any) any {
			return readerState{Mem: decodeReaderMem(mem)}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s, ok := state.(readerState)
			if !ok {
				panic("onebit: ReaderMachine driven with foreign state")
			}
			if s.Started && resp.Val == 0 {
				// Unflipped bit found: row i_r has seen i_r - 1 writes.
				val := (a.Init + s.Mem.IR - 1) % 2
				return program.ReturnAction(types.ValOf(val),
					ReaderMem{IR: s.Mem.IR, JR: s.Mem.JR + 1}), s
			}
			if s.Started {
				s.Mem.IR++ // flipped: advance to the next row
			}
			next := readerState{Mem: s.Mem, Started: true}
			return program.InvokeAction(a.Obj(s.Mem.IR, s.Mem.JR), types.Read), next
		},
	}
}

func decodeWriterMem(a Array, mem any) WriterMem {
	if m, ok := mem.(WriterMem); ok {
		return m
	}
	return WriterMem{IW: 1, Cur: a.Init}
}

func decodeReaderMem(mem any) ReaderMem {
	if m, ok := mem.(ReaderMem); ok {
		return m
	}
	return ReaderMem{IR: 1, JR: 1}
}

// Implementation assembles a standalone 2-process implementation of the
// SRSW bit type over the array: process 0 is the reader, process 1 the
// writer. It is the unit under test for Experiment E1 and the shape the
// Theorem 5 pipeline splices into host implementations.
func Implementation(r, w, init int) *program.Implementation {
	a := Array{Base: 0, R: r, W: w, Init: init}
	return &program.Implementation{
		Name:     fmt.Sprintf("one-use-bit-array(r=%d,w=%d,v=%d)", r, w, init),
		Target:   types.SRSWBit(),
		Procs:    2,
		Objects:  a.Decls(2, 0, 1),
		Machines: []program.Machine{ReaderMachine(a), WriterMachine(a)},
	}
}
