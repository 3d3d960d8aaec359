package core

import (
	"context"
	"fmt"

	"waitfree/internal/explore"
	"waitfree/internal/onebit"
	"waitfree/internal/program"
)

// This file implements the THIRD case of Theorem 5 — the h_m(T) >= 2 route
// (Section 5.3). When T is nondeterministic, the Section 5.2 witness
// machinery does not apply; instead, every one-use bit is realized from a
// REGISTER-FREE 2-process consensus implementation over objects of T (the
// h_m >= 2 witness): the bit's reader proposes 0, its writer proposes 1.

// OneUseBitsToConsensus performs the Section 5.3 replacement: every
// one-use bit becomes a private copy of the substrate's objects, with
// reads running the substrate's process-0 program bound to propose(0) and
// writes its process-1 program bound to propose(1).
//
// The substrate must be a REGISTER-FREE 2-process consensus implementation
// (otherwise the output would smuggle registers back in).
func OneUseBitsToConsensus(im *program.Implementation, substrate *program.Implementation) (*program.Implementation, error) {
	if substrate.Procs != 2 {
		return nil, fmt.Errorf("core: substrate has %d processes, need 2", substrate.Procs)
	}
	for i := range substrate.Objects {
		name := substrate.Objects[i].Spec.Name
		if name == registerSpecName || name == "register" || name == "bit" || name == oneUseSpecName {
			return nil, fmt.Errorf("%w: substrate object %d has type %q", ErrUnsupportedRegister, i, name)
		}
	}
	return replaceOneUseBits(im, "+consensus", func(readerProc, writerProc, base int) ([]program.ObjectDecl, program.Machine, program.Machine, error) {
		return onebit.FromConsensus(substrate, im.Procs, readerProc, writerProc, base)
	})
}

// EliminateRegistersVia53Context runs the full pipeline using the Section
// 5.3 route: Section 4.2 bounds, Section 4.3 one-use bits, and then the
// given register-free consensus substrate (the h_m >= 2 witness for the
// implementation's type) in place of the Section 5.2 witness. Both
// endpoints are verified exhaustively; both verifications honor ctx
// cancellation/deadlines and publish engine progress via opts.OnProgress.
func EliminateRegistersVia53Context(ctx context.Context, im *program.Implementation, substrate *program.Implementation, opts explore.Options) (*Report, error) {
	typeName := "(substrate objects)"
	if len(substrate.Objects) > 0 {
		typeName = substrate.Objects[0].Spec.Name
	}
	return eliminate(ctx, im, opts, func(*program.Implementation) (realization, error) {
		return realization{typeName: typeName, realize: func(step1 *program.Implementation) (*program.Implementation, error) {
			return OneUseBitsToConsensus(step1, substrate)
		}}, nil
	})
}
