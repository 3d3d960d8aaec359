package core

import (
	"fmt"

	"waitfree/internal/program"
	"waitfree/internal/registers"
	"waitfree/internal/types"
)

// This file runs the Section 4.1 register reduction at the machine level:
// every single-reader single-writer k-valued register is compiled into k
// SRSW bits using Vidyasankar's construction (package registers). After
// compilation the implementation's registers are all SRSW bits, the only
// register form the Theorem 5 pipeline consumes.

const srswRegisterSpecName = "srsw-register"

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
			return registers.VidyasankarDecls(decl.Name, im.Procs, readerProc, writerProc, k, init),
				registers.VidyasankarReader(base, k), registers.VidyasankarWriter(base, k), nil
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
