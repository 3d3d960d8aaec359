package core

import (
	"fmt"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file runs the Section 4.1 register reduction at the machine level:
// every single-reader single-writer k-valued register is compiled into k
// SRSW bits using Vidyasankar's construction (set bit v, clear downward;
// read by upscan to the first set bit then a confirming downscan). After
// compilation the implementation's registers are all SRSW bits, the only
// register form the Theorem 5 pipeline consumes.

const srswRegisterSpecName = "srsw-register"

// vidWriteState drives the write routine: set bits[v], then clear
// bits[v-1] .. bits[0].
type vidWriteState struct {
	V    int
	Next int // next bit index to touch; -1 when done
	Set  bool
}

// vidWriterMachine implements write(v) over k SRSW bits at indices
// base..base+k-1.
func vidWriterMachine(base, k int) program.Machine {
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, mem any) any {
			_ = mem
			return vidWriteState{V: inv.A, Next: inv.A}
		},
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			s, ok := state.(vidWriteState)
			if !ok {
				panic("core: vidWriterMachine driven with foreign state")
			}
			if !s.Set {
				return program.InvokeAction(base+s.V, types.Write(1)),
					vidWriteState{V: s.V, Next: s.V - 1, Set: true}
			}
			if s.Next < 0 {
				return program.ReturnAction(types.OK, nil), s
			}
			return program.InvokeAction(base+s.Next, types.Write(0)),
				vidWriteState{V: s.V, Next: s.Next - 1, Set: true}
		},
	}
}

// vidReadState drives the read routine: upscan for the first set bit over
// bits[0..k-2] (an all-zero upscan implies the value k-1 without reading
// the top bit), then downscan from the candidate's predecessor to bit 0,
// adopting the lowest set bit seen. J is the index of the bit whose
// response the machine is receiving; -1 before the first read.
type vidReadState struct {
	Phase int // 0 = upscan, 1 = downscan
	J     int
	V     int // candidate value
}

// vidReaderMachine implements read over k SRSW bits at indices
// base..base+k-1 (k >= 2).
func vidReaderMachine(base, k int) program.Machine {
	return program.FuncMachine{
		StartFn: func(_ types.Invocation, mem any) any {
			_ = mem
			return vidReadState{J: -1}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s, ok := state.(vidReadState)
			if !ok {
				panic("core: vidReaderMachine driven with foreign state")
			}
			if s.Phase == 0 {
				if s.J == -1 {
					return program.InvokeAction(base, types.Read), vidReadState{J: 0}
				}
				v := -1
				switch {
				case resp.Val == 1:
					v = s.J // first set bit found
				case s.J == k-2:
					v = k - 1 // upscan exhausted: the value is the top index
				}
				if v == -1 {
					return program.InvokeAction(base+s.J+1, types.Read),
						vidReadState{Phase: 0, J: s.J + 1}
				}
				if v == 0 {
					return program.ReturnAction(types.ValOf(0), nil), s
				}
				return program.InvokeAction(base+v-1, types.Read),
					vidReadState{Phase: 1, J: v - 1, V: v}
			}
			// Downscan: resp answers bits[J].
			if resp.Val == 1 {
				s.V = s.J
			}
			if s.J == 0 {
				return program.ReturnAction(types.ValOf(s.V), nil), s
			}
			return program.InvokeAction(base+s.J-1, types.Read),
				vidReadState{Phase: 1, J: s.J - 1, V: s.V}
		},
	}
}

// CompileSRSWRegisters replaces every k-valued SRSW register with k SRSW
// bits in unary (Vidyasankar) encoding, splicing the read and write
// routines into the affected processes. Register objects with non-integer
// initial states are rejected.
func CompileSRSWRegisters(im *program.Implementation) (*program.Implementation, error) {
	selected := make(map[int]replacement)
	for i := range im.Objects {
		decl := &im.Objects[i]
		if decl.Spec.Name != srswRegisterSpecName {
			continue
		}
		k := registerValues(decl.Spec)
		if k < 2 {
			return nil, fmt.Errorf("core: register %s has unusable value range %d", decl.Name, k)
		}
		init, ok := decl.Init.(int)
		if !ok || init < 0 || init >= k {
			return nil, fmt.Errorf("core: register %s has invalid initial state %v", decl.Name, decl.Init)
		}
		selected[i] = func(readerProc, writerProc, base int) ([]program.ObjectDecl, program.Machine, program.Machine, error) {
			return vidDecls(decl.Name, im.Procs, readerProc, writerProc, k, init), vidReaderMachine(base, k), vidWriterMachine(base, k), nil
		}
	}
	if len(selected) == 0 {
		return im, nil
	}
	return replaceObjects(im, im.Name+"+bits", selected)
}

// registerValues recovers k from the register spec's write alphabet.
func registerValues(spec *types.Spec) int {
	k := 0
	for _, inv := range spec.Alphabet {
		if inv.Op == types.OpWrite && inv.A+1 > k {
			k = inv.A + 1
		}
	}
	return k
}

// vidDecls declares the k SRSW bits encoding one register: bit init is 1
// exactly at the register's initial value.
func vidDecls(name string, procs, readerProc, writerProc, k, init int) []program.ObjectDecl {
	decls := make([]program.ObjectDecl, k)
	for j := range decls {
		b := 0
		if j == init {
			b = 1
		}
		decls[j] = program.ObjectDecl{
			Name:   fmt.Sprintf("%s.bit%d", name, j),
			Spec:   types.SRSWBit(),
			Init:   b,
			PortOf: program.PairPorts(procs, readerProc, writerProc),
		}
	}
	return decls
}
