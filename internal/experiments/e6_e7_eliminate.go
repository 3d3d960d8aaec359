package experiments

import (
	"context"
	"fmt"
	"strconv"

	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/explore"
	"waitfree/internal/hierarchy"
	"waitfree/internal/program"
)

// E6 reproduces the constructive Theorem 5 pipeline on every
// register-using protocol: bounds (4.2), register-to-one-use-bit rewriting
// (4.3), one-use-bit realization from T (5.2), with exhaustive verification
// of both endpoints.
func E6(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Register elimination — constructive Theorem 5",
		PaperClaim: "If T is deterministic and non-trivial and some registers plus objects of " +
			"T implement n-process consensus, then objects of T alone do.",
		Expectation: "Each register with bounds (r, w) costs (w+1)*r one-use bits, each one " +
			"T object; output D grows by the witness length k per simulated access; " +
			"every output verifies register-free.",
		Columns: []string{"protocol", "procs", "input D", "registers", "one-use bits",
			"T objects added", "output objects", "output D", "output verified"},
	}
	cases := []struct {
		name string
		mk   func() *program.Implementation
		memo bool
	}{
		{"tas-2consensus", consensus.TAS2, false},
		{"queue-2consensus", consensus.Queue2, false},
		{"stack-2consensus", consensus.Stack2, false},
		{"faa-2consensus", consensus.FAA2, false},
		{"swap-2consensus", consensus.Swap2, false},
		{"cas-register-3consensus", consensus.CASRegister3, true},
	}
	allOK := true
	for _, tc := range cases {
		im := tc.mk()
		report, err := core.EliminateRegistersContext(ctx, im, explore.Options{Memoize: tc.memo}, 3)
		if err != nil {
			return nil, fmt.Errorf("E6 %s: %w", tc.name, err)
		}
		ok := report.OutputReport.OK() &&
			report.Output.CountObjects("srsw-bit") == 0 &&
			report.Output.CountObjects("one-use-bit") == 0
		allOK = allOK && ok
		t.Rows = append(t.Rows, []string{
			tc.name, strconv.Itoa(im.Procs), strconv.Itoa(report.InputReport.Depth),
			strconv.Itoa(report.RegistersEliminated), strconv.Itoa(report.OneUseBitsUsed),
			strconv.Itoa(report.TypeObjectsAdded), strconv.Itoa(len(report.Output.Objects)),
			strconv.Itoa(report.OutputReport.Depth), yn(ok),
		})
	}
	// Theorem 5's third case: a NONDETERMINISTIC type with h_m >= 2
	// (noisy-sticky). The Section 5.2 witness machinery is unavailable, so
	// the one-use bits are realized from the type's own register-free
	// 2-consensus implementation (Section 5.3).
	via53, err := core.EliminateRegistersVia53Context(ctx,
		consensus.NoisySticky2R(), consensus.NoisySticky2(), explore.Options{})
	if err != nil {
		return nil, fmt.Errorf("E6 via-5.3: %w", err)
	}
	ok53 := via53.OutputReport.OK() &&
		via53.Output.CountObjects("srsw-bit") == 0 &&
		via53.Output.CountObjects("one-use-bit") == 0
	allOK = allOK && ok53
	t.Rows = append(t.Rows, []string{
		"noisysticky-2consensus-r (nondet; via 5.3)", "2",
		strconv.Itoa(via53.InputReport.Depth), strconv.Itoa(via53.RegistersEliminated),
		strconv.Itoa(via53.OneUseBitsUsed), strconv.Itoa(via53.TypeObjectsAdded),
		strconv.Itoa(len(via53.Output.Objects)), strconv.Itoa(via53.OutputReport.Depth), yn(ok53),
	})

	t.Verdict = verdict(allOK,
		"every transformed protocol is register-free and passes exhaustive "+
			"agreement/validity/wait-freedom checking — including the nondeterministic "+
			"h_m >= 2 case via the Section 5.3 route")
	return t, nil
}

// E7 reproduces the Theorem 5 corollary on the zoo: h_m(T) = h_m^r(T) for
// deterministic types. For every type with a verified register-using
// consensus protocol (h_m^r >= 2 witness), the pipeline produces a
// register-free witness (h_m >= 2); for level-1 and trivial types, the
// classification records the equality argument.
func E7(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "h_m = h_m^r on the deterministic zoo (Theorem 5)",
		PaperClaim: "For every deterministic type T (and every T with h_m(T) >= 2), " +
			"h_m(T) = h_m^r(T).",
		Expectation: "Each level-2 type gets both witnesses machine-checked; level-1 types " +
			"rely on the impossibility side (registers alone cannot do 2-consensus), " +
			"which E3 exhibits on the naive protocol.",
		Columns: []string{"type", "h_m^r >= 2 witness", "h_m >= 2 witness (register-free)", "conclusion"},
	}
	cases := []struct {
		typeName string
		mk       func() *program.Implementation
	}{
		{"test-and-set", consensus.TAS2},
		{"queue", consensus.Queue2},
		{"stack", consensus.Stack2},
		{"fetch-and-add", consensus.FAA2},
		{"swap", consensus.Swap2},
	}
	allOK := true
	for _, tc := range cases {
		in := tc.mk()
		inReport, err := checkConsensus(ctx, in, 2, explore.Options{})
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", tc.typeName, err)
		}
		pipeline, err := core.EliminateRegistersContext(ctx, tc.mk(), explore.Options{}, 3)
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", tc.typeName, err)
		}
		ok := inReport.OK() && pipeline.OutputReport.OK()
		allOK = allOK && ok
		t.Rows = append(t.Rows, []string{
			tc.typeName,
			yn(inReport.OK()) + " (explored exhaustively)",
			yn(pipeline.OutputReport.OK()) + fmt.Sprintf(" (%d %s objects, no registers)",
				len(pipeline.Output.Objects), tc.typeName),
			"h_m = h_m^r = 2 witnessed at n = 2",
		})
	}

	// Level-1 deterministic types: the equality holds with both sides at 1.
	cs, err := hierarchy.ClassifyZooContext(ctx, 1)
	if err != nil {
		return nil, err
	}
	level1 := 0
	for _, c := range cs {
		if c.Deterministic && c.Consensus == "1" {
			level1++
		}
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("(%d level-1 deterministic types)", level1),
		"n/a (level 1)", "n/a (level 1)",
		"h_m = h_m^r = 1 (registers alone cannot solve 2-consensus; see E3's naive protocol)",
	})

	t.Verdict = verdict(allOK,
		"for every deterministic zoo type with consensus number 2, both hierarchies "+
			"witness level 2; Theorem 5's equality is constructive")
	return t, nil
}
