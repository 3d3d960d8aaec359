package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

func TestBoundRejectsBrokenInput(t *testing.T) {
	_, err := BoundContext(context.Background(), consensus.NaiveRegister2(), explore.Options{})
	if !errors.Is(err, ErrNotWaitFree) {
		t.Fatalf("err = %v, want ErrNotWaitFree", err)
	}
}

func TestRegisterBoundsTAS2(t *testing.T) {
	im := consensus.TAS2()
	report, err := BoundContext(context.Background(), im, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := RegisterBounds(im, report)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2 {
		t.Fatalf("found %d registers, want 2", len(bounds))
	}
	for _, b := range bounds {
		if b.R != 1 || b.W != 1 {
			t.Errorf("register %s: bounds r=%d w=%d, want 1/1", b.Name, b.R, b.W)
		}
	}
}

func TestRegisterBoundsRejectsGeneralRegisters(t *testing.T) {
	im := consensus.NaiveRegister2() // uses multi-writer registers
	report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RegisterBounds(im, report); !errors.Is(err, ErrUnsupportedRegister) {
		t.Fatalf("err = %v, want ErrUnsupportedRegister", err)
	}
}

func TestInferType(t *testing.T) {
	spec, inits, err := InferType(consensus.Queue2())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "queue" || len(inits) != 1 {
		t.Fatalf("inferred %q with %d inits", spec.Name, len(inits))
	}
	if _, _, err := InferType(&program.Implementation{Name: "empty", Procs: 1}); !errors.Is(err, ErrNoTypeObjects) {
		t.Fatalf("err = %v, want ErrNoTypeObjects", err)
	}
}

// TestEliminateRegistersAllProtocols is Experiment E6 in miniature: the
// full Theorem 5 pipeline on every register-using 2-process protocol, with
// exhaustive verification of the register-free output.
func TestEliminateRegistersAllProtocols(t *testing.T) {
	for _, im := range consensus.RegisterUsing() {
		im := im
		t.Run(im.Name, func(t *testing.T) {
			report, err := EliminateRegistersContext(context.Background(), im, explore.Options{}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !report.OutputReport.OK() {
				t.Fatalf("output failed: %s", report.OutputReport.Summary())
			}
			// The output must be register-free.
			if n := report.Output.CountObjects("srsw-bit"); n != 0 {
				t.Errorf("output still has %d registers", n)
			}
			if n := report.Output.CountObjects("one-use-bit"); n != 0 {
				t.Errorf("output still has %d one-use bits", n)
			}
			// Both registers had bounds r=w=1, so each becomes
			// (1+1)*1 = 2 one-use bits, each one T object.
			if report.OneUseBitsUsed != 4 {
				t.Errorf("one-use bits = %d, want 4", report.OneUseBitsUsed)
			}
			if report.TypeObjectsAdded != 4 {
				t.Errorf("T objects added = %d, want 4", report.TypeObjectsAdded)
			}
			// Output uses only objects of T.
			typeName := report.TypeName
			for i := range report.Output.Objects {
				if got := report.Output.Objects[i].Spec.Name; got != typeName {
					t.Errorf("object %d has type %q, want %q", i, got, typeName)
				}
			}
			if !strings.Contains(report.Summary(), "ok=true") {
				t.Errorf("summary: %s", report.Summary())
			}
		})
	}
}

// TestEliminatedOutputsSolo checks the validity corner of every
// transformed protocol: a process running alone decides its own value.
func TestEliminatedOutputsSolo(t *testing.T) {
	for _, mk := range consensus.RegisterUsing() {
		report, err := EliminateRegistersContext(context.Background(), mk, explore.Options{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			for v := 0; v <= 1; v++ {
				states := report.Output.InitialStates()
				res, err := program.Solo(report.Output, states, p, types.Propose(v), nil, 1000)
				if err != nil {
					t.Fatalf("%s: solo p%d propose(%d): %v", report.Output.Name, p, v, err)
				}
				if res.Resp != types.ValOf(v) {
					t.Errorf("%s: solo p%d propose(%d) decided %v", report.Output.Name, p, v, res.Resp)
				}
			}
		}
	}
}

// TestPipelineStepsIndividually exercises the two rewriting steps
// separately: after step 2 the implementation still verifies (with one-use
// bits present), and after step 3 it verifies register-free.
func TestPipelineStepsIndividually(t *testing.T) {
	im := consensus.TAS2()
	report, err := BoundContext(context.Background(), im, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := RegisterBounds(im, report)
	if err != nil {
		t.Fatal(err)
	}
	step1, err := RegistersToOneUseBits(im, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if n := step1.CountObjects("one-use-bit"); n != 4 {
		t.Fatalf("step1 one-use bits = %d, want 4", n)
	}
	if n := step1.CountObjects("srsw-bit"); n != 0 {
		t.Fatalf("step1 registers = %d, want 0", n)
	}
	mid, err := explore.ConsensusKContext(context.Background(), step1, 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mid.OK() {
		t.Fatalf("intermediate implementation failed: %s\n%v", mid.Summary(), mid.Violation)
	}
	// One-use bit discipline holds in every execution.
	for obj := range step1.Objects {
		if step1.Objects[obj].Spec.Name != "one-use-bit" {
			continue
		}
		if mid.OpAccess[obj][types.OpRead] > 1 || mid.OpAccess[obj][types.OpWrite] > 1 {
			t.Errorf("one-use bit %d over-used: %v", obj, mid.OpAccess[obj])
		}
	}
}

// TestEliminateWithMemoization checks the pipeline under the memoized
// explorer (the ablation configuration) produces the same verdict.
func TestEliminateWithMemoization(t *testing.T) {
	plain, err := EliminateRegistersContext(context.Background(), consensus.TAS2(), explore.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := EliminateRegistersContext(context.Background(), consensus.TAS2(), explore.Options{Memoize: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.OutputReport.Depth != memo.OutputReport.Depth {
		t.Errorf("depths differ: %d vs %d", plain.OutputReport.Depth, memo.OutputReport.Depth)
	}
	if plain.OutputReport.Leaves != memo.OutputReport.Leaves {
		t.Errorf("leaves differ: %d vs %d", plain.OutputReport.Leaves, memo.OutputReport.Leaves)
	}
}

// TestOutputDepthGrowth documents the cost shape: the transformed
// implementation's D grows versus the input's (each register access
// becomes up to r+w+1 object accesses, each scaled by the witness
// sequence length k).
func TestOutputDepthGrowth(t *testing.T) {
	report, err := EliminateRegistersContext(context.Background(), consensus.TAS2(), explore.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.OutputReport.Depth <= report.InputReport.Depth {
		t.Errorf("output D = %d not larger than input D = %d",
			report.OutputReport.Depth, report.InputReport.Depth)
	}
}

// TestEliminateThreeProcess runs the pipeline on the 3-process protocol:
// six SRSW announcement registers are eliminated and the register-free
// output is verified exhaustively over all 8 proposal vectors.
func TestEliminateThreeProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 3-process exploration")
	}
	report, err := EliminateRegistersContext(context.Background(), consensus.CASRegister3(), explore.Options{Memoize: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OutputReport.OK() {
		t.Fatalf("output failed: %s", report.OutputReport.Summary())
	}
	if report.RegistersEliminated != 6 {
		t.Errorf("registers eliminated = %d, want 6", report.RegistersEliminated)
	}
	// Each register has r = w = 1, so 2 one-use bits each.
	if report.OneUseBitsUsed != 12 {
		t.Errorf("one-use bits = %d, want 12", report.OneUseBitsUsed)
	}
	if report.TypeName != "compare-and-swap" {
		t.Errorf("inferred type %q", report.TypeName)
	}
	for i := range report.Output.Objects {
		if got := report.Output.Objects[i].Spec.Name; got != "compare-and-swap" {
			t.Errorf("object %d has type %q", i, got)
		}
	}
}

// TestEliminatedOutputCrashTolerance walks a transformed protocol with
// crash injection: whatever step the crashed process stops at, the
// survivor must still decide a proposed value — wait-freedom of the
// register-free output under stopping failures.
func TestEliminatedOutputCrashTolerance(t *testing.T) {
	report, err := EliminateRegistersContext(context.Background(), consensus.TAS2(), explore.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := report.Output
	// The transformed protocol's executions are short; sweep all crash
	// points for each crashing process.
	maxSteps := report.OutputReport.Depth
	for crashProc := 0; crashProc < 2; crashProc++ {
		for crashAfter := 0; crashAfter <= maxSteps; crashAfter++ {
			scripts := [][]types.Invocation{
				{types.Propose(crashProc)}, {types.Propose(1 - crashProc)},
			}
			s := explore.Schedule{Seed: int64(crashAfter), CrashAfter: map[int]int{crashProc: crashAfter}}
			outcome, err := explore.Walk(out, scripts, s)
			if err != nil {
				t.Fatalf("crash p%d@%d: %v", crashProc, crashAfter, err)
			}
			survivor := 1 - crashProc
			if len(outcome.Responses[survivor]) != 1 {
				t.Fatalf("crash p%d@%d: survivor did not decide", crashProc, crashAfter)
			}
			d := outcome.Responses[survivor][0]
			if d.Val != 0 && d.Val != 1 {
				t.Fatalf("crash p%d@%d: invalid decision %v", crashProc, crashAfter, d)
			}
			// If both processes decided, they must agree.
			if len(outcome.Responses[crashProc]) == 1 {
				if outcome.Responses[crashProc][0] != d {
					t.Fatalf("crash p%d@%d: disagreement %v vs %v",
						crashProc, crashAfter, outcome.Responses[crashProc][0], d)
				}
			}
		}
	}
}

// TestEliminatedOutputUnderTokenScheduler samples seeded walks of a
// transformed protocol — complementary evidence to the exhaustive
// explorer on the same object.
func TestEliminatedOutputUnderTokenScheduler(t *testing.T) {
	report, err := EliminateRegistersContext(context.Background(), consensus.Queue2(), explore.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 30; seed++ {
		outcome, err := explore.Walk(report.Output, [][]types.Invocation{{types.Propose(0)}, {types.Propose(1)}}, explore.Schedule{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if outcome.Responses[0][0] != outcome.Responses[1][0] {
			t.Fatalf("seed %d: disagreement %v vs %v", seed,
				outcome.Responses[0][0], outcome.Responses[1][0])
		}
	}
}

// TestEliminateVia53 exercises Theorem 5's THIRD case: the input's type is
// nondeterministic (noisy-sticky), so the Section 5.2 witness machinery is
// unavailable — and indeed the deterministic-route pipeline refuses — but
// h_m(T) >= 2 supplies a register-free consensus substrate from which the
// one-use bits are realized (Section 5.3). The output uses only
// noisy-sticky objects and verifies over all adversary resolutions.
func TestEliminateVia53(t *testing.T) {
	input := consensus.NoisySticky2R()

	// The deterministic route must refuse the nondeterministic type.
	if _, err := EliminateRegistersContext(context.Background(), input, explore.Options{}, 3); err == nil {
		t.Fatal("Section 5.2 route accepted a nondeterministic type")
	}

	report, err := EliminateRegistersVia53Context(context.Background(), input, consensus.NoisySticky2(), explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OutputReport.OK() {
		t.Fatalf("output failed: %s", report.OutputReport.Summary())
	}
	if n := report.Output.CountObjects("srsw-bit"); n != 0 {
		t.Errorf("output still has %d registers", n)
	}
	if n := report.Output.CountObjects("one-use-bit"); n != 0 {
		t.Errorf("output still has %d one-use bits", n)
	}
	for i := range report.Output.Objects {
		if got := report.Output.Objects[i].Spec.Name; got != "noisy-sticky" {
			t.Errorf("object %d has type %q, want noisy-sticky", i, got)
		}
	}
	// 2 registers x (1+1)x1 = 4 one-use bits, each one substrate copy
	// (one noisy-sticky object each), plus the election object.
	if report.OneUseBitsUsed != 4 {
		t.Errorf("one-use bits = %d, want 4", report.OneUseBitsUsed)
	}
	if len(report.Output.Objects) != 5 {
		t.Errorf("output objects = %d, want 5", len(report.Output.Objects))
	}
}

// TestVia53RejectsRegisterBearingSubstrate: the substrate must be
// register-free, or the transformation would smuggle registers back.
func TestVia53RejectsRegisterBearingSubstrate(t *testing.T) {
	input := consensus.NoisySticky2R()
	if _, err := EliminateRegistersVia53Context(context.Background(), input, consensus.TAS2(), explore.Options{}); !errors.Is(err, ErrUnsupportedRegister) {
		t.Fatalf("err = %v, want ErrUnsupportedRegister", err)
	}
}

// TestVia53RejectsInvalidSubstrate: a substrate that fails validation is
// reported when its one-use bits are built, not turned into an output
// whose one-use bits have no objects behind them.
func TestVia53RejectsInvalidSubstrate(t *testing.T) {
	sub := consensus.NoisySticky2()
	sub.Machines = sub.Machines[:1]
	_, err := EliminateRegistersVia53Context(context.Background(), consensus.NoisySticky2R(), sub, explore.Options{})
	if err == nil || !strings.Contains(err.Error(), "onebit: consensus substrate") {
		t.Fatalf("err = %v, want the substrate's validation error", err)
	}
}
