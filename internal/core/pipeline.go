package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"

	"waitfree/internal/explore"
	"waitfree/internal/hierarchy"
	"waitfree/internal/onebit"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// Errors reported by the pipeline.
var (
	// ErrNotWaitFree: the input failed verification, so no access bounds
	// exist (the Section 4.2 Koenig argument needs wait-freedom).
	ErrNotWaitFree = errors.New("core: input implementation is not a correct wait-free consensus implementation")
	// ErrUnsupportedRegister: the implementation uses a register type other
	// than the SRSW bit. Section 4.1 reduces all registers to SRSW bits;
	// express the input over types.SRSWBit (see package registers for the
	// executable chain).
	ErrUnsupportedRegister = errors.New("core: registers must be SRSW bits (reduce via the Section 4.1 chain)")
	// ErrNoTypeObjects: the implementation has no non-register objects, so
	// there is no type T to realize one-use bits from.
	ErrNoTypeObjects = errors.New("core: no non-register objects to infer the type T from")
	// ErrInconclusive: an exploration the pipeline depends on stopped with
	// partial coverage (soft node budget, deadline, or the stall watchdog)
	// before it could settle the property. Unlike ErrNotWaitFree this says
	// nothing about the input; the partial report — carrying a resumable
	// checkpoint — is returned alongside the error.
	ErrInconclusive = errors.New("core: exploration stopped with partial coverage; verdict inconclusive")
)

// registerSpecName matches the objects that step 2 eliminates.
const registerSpecName = "srsw-bit"

// oneUseSpecName matches the objects that step 3 eliminates.
const oneUseSpecName = "one-use-bit"

// TargetValues returns the proposal-value range every exploration of the
// pipeline drives the implementation with: k for a multi-valued consensus
// target, else 2 (the paper's binary T_{c,n}).
func TargetValues(im *program.Implementation) int {
	if im != nil && im.Target != nil && im.Target.Name == "multi-consensus" {
		if k := len(im.Target.Alphabet); k >= 2 {
			return k
		}
	}
	return 2
}

// BoundContext runs the Section 4.2 analysis: it explores all execution
// trees of the consensus implementation and returns the report carrying
// the uniform depth bound D and the exact per-object, per-operation access
// bounds. The input must verify (agreement, validity, wait-freedom);
// otherwise ErrNotWaitFree. Multi-valued consensus targets are handled
// with k^n trees; opts.Parallelism fans them across workers without
// changing the report. Cancellation or deadline expiry aborts the
// exploration promptly and returns ctx.Err() (see
// explore.ConsensusKContext for the engine semantics, including
// Options.OnProgress observability).
func BoundContext(ctx context.Context, im *program.Implementation, opts explore.Options) (*explore.ConsensusReport, error) {
	report, err := explore.ConsensusKContext(ctx, im, TargetValues(im), opts)
	if err != nil {
		// Pass any partial report through: a cancelled run's report carries
		// the resumable checkpoint.
		return report, err
	}
	if report.Partial {
		// Partial coverage proves nothing either way: distinguish "stopped
		// early" from "failed verification" so callers can resume instead
		// of condemning the input.
		return report, fmt.Errorf("%w: %s", ErrInconclusive, report.Summary())
	}
	if !report.OK() {
		return report, fmt.Errorf("%w: %s", ErrNotWaitFree, report.Summary())
	}
	return report, nil
}

// RegisterBound carries one register's Section 4.2 access bounds.
type RegisterBound struct {
	// Obj is the object index in the input implementation.
	Obj  int    `json:"obj"`
	Name string `json:"name"`
	// R and W are the read and write bounds (the paper's r_b and w_b).
	R    int `json:"r"`
	W    int `json:"w"`
	Init int `json:"init"`
}

// RegisterBounds extracts the SRSW-bit registers of im and their bounds
// from a BoundContext report. Registers that are never read or never written in
// any execution still get bounds of at least 1 so that the Section 4.3
// geometry is well-formed.
func RegisterBounds(im *program.Implementation, report *explore.ConsensusReport) ([]RegisterBound, error) {
	var out []RegisterBound
	for i := range im.Objects {
		decl := &im.Objects[i]
		if decl.Spec.Name != registerSpecName {
			if decl.Spec.Name == "register" || decl.Spec.Name == "bit" {
				return nil, fmt.Errorf("%w: object %d (%s) has type %q", ErrUnsupportedRegister, i, decl.Name, decl.Spec.Name)
			}
			continue
		}
		init, ok := decl.Init.(int)
		if !ok {
			return nil, fmt.Errorf("core: register %d (%s) has non-integer initial state %v", i, decl.Name, decl.Init)
		}
		rb := report.OpAccess[i][types.OpRead]
		wb := report.OpAccess[i][types.OpWrite]
		if rb == 0 {
			rb = 1
		}
		if wb == 0 {
			wb = 1
		}
		out = append(out, RegisterBound{Obj: i, Name: decl.Name, R: rb, W: wb, Init: init})
	}
	return out, nil
}

// bitParties returns the reader and the writer process of a bit-like
// object. Registers and one-use bits all follow the SRSW bit's port
// convention (program.PairPorts).
func bitParties(decl *program.ObjectDecl) (readerProc, writerProc int, err error) {
	readerProc, writerProc = -1, -1
	for p, port := range decl.PortOf {
		switch port {
		case types.SRSWBitReaderPort:
			readerProc = p
		case types.SRSWBitWriterPort:
			writerProc = p
		}
	}
	if readerProc < 0 || writerProc < 0 {
		what := "register"
		if decl.Spec.Name == oneUseSpecName {
			what = "one-use bit"
		}
		return 0, 0, fmt.Errorf("core: %s %s lacks a reader or writer process", what, decl.Name)
	}
	return readerProc, writerProc, nil
}

// RegistersToOneUseBits performs step 2 (Section 4.3): every SRSW-bit
// register becomes an (w_b+1) x r_b array of one-use bits, and the paper's
// read and write routines are spliced into the affected processes.
func RegistersToOneUseBits(im *program.Implementation, bounds []RegisterBound) (*program.Implementation, error) {
	selected := make(map[int]replacement, len(bounds))
	for _, b := range bounds {
		selected[b.Obj] = func(readerProc, writerProc, base int) ([]program.ObjectDecl, program.Machine, program.Machine, error) {
			a := onebit.Array{R: b.R, W: b.W, Init: b.Init, Base: base}
			return a.Decls(im.Procs, readerProc, writerProc), onebit.ReaderMachine(a), onebit.WriterMachine(a), nil
		}
	}
	return replaceObjects(im, im.Name+"+onebits", selected)
}

// replaceOneUseBits performs step 3 on either route: realize replaces
// every one-use bit of im.
func replaceOneUseBits(im *program.Implementation, suffix string, realize replacement) (*program.Implementation, error) {
	selected := make(map[int]replacement)
	for i := range im.Objects {
		if im.Objects[i].Spec.Name == oneUseSpecName {
			selected[i] = realize
		}
	}
	return replaceObjects(im, im.Name+suffix, selected)
}

// OneUseBitsToType performs step 3 (Sections 5.1/5.2): every one-use bit
// becomes a single object of the non-trivial deterministic type spec,
// initialized at the witness pair's start state, with reads running the
// pair's sequence and writes its distinguishing invocation.
func OneUseBitsToType(im *program.Implementation, spec *types.Spec, pair *hierarchy.Pair) (*program.Implementation, error) {
	return replaceOneUseBits(im, "+type", func(readerProc, writerProc, base int) ([]program.ObjectDecl, program.Machine, program.Machine, error) {
		return []program.ObjectDecl{onebit.PairDecl(spec, pair, im.Procs, readerProc, writerProc)},
			onebit.PairReaderMachine(pair, base), onebit.PairWriterMachine(pair, base), nil
	})
}

// InferType returns the unique non-register, non-one-use-bit object type
// of the implementation together with the initial states its objects use —
// the T whose objects will realize the one-use bits.
func InferType(im *program.Implementation) (*types.Spec, []types.State, error) {
	var spec *types.Spec
	var inits []types.State
	for i := range im.Objects {
		decl := &im.Objects[i]
		if decl.Spec.Name == registerSpecName || decl.Spec.Name == oneUseSpecName ||
			decl.Spec.Name == srswRegisterSpecName {
			continue
		}
		if spec == nil {
			spec = decl.Spec
		} else if spec.Name != decl.Spec.Name {
			return nil, nil, fmt.Errorf("core: multiple candidate types (%q and %q); pass T explicitly",
				spec.Name, decl.Spec.Name)
		}
		inits = append(inits, decl.Init)
	}
	if spec == nil {
		return nil, nil, ErrNoTypeObjects
	}
	return spec, inits, nil
}

// Report is the full record of one register-elimination run, the data
// behind Experiments E6 and E7. The runnable implementations themselves
// are excluded from the JSON form (machines are code); InputName and
// OutputName identify them instead.
type Report struct {
	Input  *program.Implementation `json:"-"`
	Output *program.Implementation `json:"-"`

	InputName  string `json:"input"`
	OutputName string `json:"output"`

	// InputReport is the Section 4.2 analysis of the input (D, bounds).
	InputReport *explore.ConsensusReport `json:"input_report"`
	// OutputReport verifies the output (agreement, validity, wait-free).
	OutputReport *explore.ConsensusReport `json:"output_report"`

	Bounds []RegisterBound `json:"bounds"`
	// Pair is the Section 5.2 witness used to realize one-use bits (nil on
	// the Section 5.3 route).
	Pair *hierarchy.Pair `json:"pair,omitempty"`
	// TypeName is the name of the type T realizing the one-use bits.
	TypeName string `json:"type"`

	// Accounting.
	RegistersEliminated int `json:"registers_eliminated"`
	OneUseBitsUsed      int `json:"one_use_bits"`
	TypeObjectsAdded    int `json:"type_objects_added"`
}

// Summary renders the report's headline numbers.
func (r *Report) Summary() string {
	return fmt.Sprintf("%s: D=%d, %d registers -> %d one-use bits -> %d %s objects; output D=%d, ok=%v",
		r.InputName, r.InputReport.Depth, r.RegistersEliminated, r.OneUseBitsUsed,
		r.TypeObjectsAdded, r.TypeName, r.OutputReport.Depth, r.OutputReport.OK())
}

// String renders the full human-readable report — the single source of
// truth behind cmd/eliminate's output: the Section 4.2 bounds, the
// witness (or substrate) realizing one-use bits, the accounting, and the
// output verification.
func (r *Report) String() string {
	var b strings.Builder
	if r.Output != nil {
		fmt.Fprintf(&b, "output: %v\n\n", r.Output)
	} else {
		// Reports rehydrated from JSON (the result cache) carry only the
		// marshaled fields; Input/Output are json:"-".
		fmt.Fprintf(&b, "output: %s\n\n", r.OutputName)
	}
	b.WriteString("Section 4.2 access bounds of the input:\n")
	fmt.Fprintf(&b, "  uniform bound D = %d object accesses per execution\n", r.InputReport.Depth)
	for _, bd := range r.Bounds {
		fmt.Fprintf(&b, "  register %-10s r_b = %d, w_b = %d  ->  (w+1) x r = %d one-use bits\n",
			bd.Name, bd.R, bd.W, (bd.W+1)*bd.R)
	}
	if r.Pair != nil {
		fmt.Fprintf(&b, "\nSection 5.2 witness realizing one-use bits from %s:\n  %v\n", r.TypeName, r.Pair)
	} else {
		fmt.Fprintf(&b, "\nSection 5.3 route: one-use bits realized from the register-free %s consensus substrate\n", r.TypeName)
	}
	b.WriteString("\naccounting:\n")
	fmt.Fprintf(&b, "  registers eliminated:   %d\n", r.RegistersEliminated)
	fmt.Fprintf(&b, "  one-use bits introduced: %d\n", r.OneUseBitsUsed)
	fmt.Fprintf(&b, "  %s objects added:  %d\n", r.TypeName, r.TypeObjectsAdded)
	b.WriteString("\nverification of the register-free output:\n")
	fmt.Fprintf(&b, "  %s\n", r.OutputReport.Summary())
	return b.String()
}

// EliminateRegistersContext runs the full Theorem 5 pipeline on a
// consensus implementation over SRSW-bit registers and objects of one
// non-trivial deterministic type, verifying both endpoints. opts
// configures both explorations (Memoize is recommended for larger
// protocols, and opts.Parallelism spreads each verification's
// proposal-vector trees across workers). maxK bounds the Section 5.2
// witness search (0 means hierarchy.DefaultMaxK). Both endpoint
// verifications honor ctx cancellation/deadlines and publish engine
// progress via opts.OnProgress.
func EliminateRegistersContext(ctx context.Context, im *program.Implementation, opts explore.Options, maxK int) (*Report, error) {
	return eliminate(ctx, im, opts, func(compiled *program.Implementation) (realization, error) {
		spec, inits, err := InferType(compiled)
		if err != nil {
			return realization{}, err
		}
		pair, err := hierarchy.FindPair(spec, inits, cmp.Or(maxK, hierarchy.DefaultMaxK))
		if err != nil {
			return realization{}, fmt.Errorf("core: type %q cannot realize one-use bits: %w", spec.Name, err)
		}
		return realization{typeName: spec.Name, pair: pair, realize: func(step1 *program.Implementation) (*program.Implementation, error) {
			return OneUseBitsToType(step1, spec, pair)
		}}, nil
	})
}

// realization is how one route of Theorem 5 realizes one-use bits: from
// the Section 5.2 witness pair of T, or (Section 5.3) from a register-free
// consensus substrate.
type realization struct {
	typeName string
	pair     *hierarchy.Pair // nil on the Section 5.3 route
	realize  func(*program.Implementation) (*program.Implementation, error)
}

// eliminate runs the chain both routes share: the Section 4.1 compile,
// the Section 4.2 bounds, the route's precondition on the compiled input
// (which yields its realization), the Section 4.3 one-use bits, the
// route's step 3, and the verification of the register-free output.
func eliminate(ctx context.Context, im *program.Implementation, opts explore.Options, route func(compiled *program.Implementation) (realization, error)) (*Report, error) {
	compiled, err := CompileSRSWRegisters(im)
	if err != nil {
		return nil, err
	}
	inputReport, err := BoundContext(ctx, compiled, opts)
	if err != nil {
		return nil, err
	}
	bounds, err := RegisterBounds(compiled, inputReport)
	if err != nil {
		return nil, err
	}
	r, err := route(compiled)
	if err != nil {
		return nil, err
	}
	step1, err := RegistersToOneUseBits(compiled, bounds)
	if err != nil {
		return nil, err
	}
	out, err := r.realize(step1)
	if err != nil {
		return nil, err
	}
	outputReport, err := explore.ConsensusKContext(ctx, out, TargetValues(im), opts)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Input:               im,
		Output:              out,
		InputName:           im.Name,
		OutputName:          out.Name,
		InputReport:         inputReport,
		OutputReport:        outputReport,
		Bounds:              bounds,
		Pair:                r.pair,
		TypeName:            r.typeName,
		RegistersEliminated: len(bounds),
		OneUseBitsUsed:      step1.CountObjects(oneUseSpecName),
		TypeObjectsAdded:    out.CountObjects(r.typeName) - im.CountObjects(r.typeName),
	}
	if outputReport.Partial {
		return report, fmt.Errorf("%w: transformed implementation: %s", ErrInconclusive, outputReport.Summary())
	}
	if !outputReport.OK() {
		return report, fmt.Errorf("core: transformed implementation failed verification: %s", outputReport.Summary())
	}
	return report, nil
}
