package experiments

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/program"
	"waitfree/internal/synth"
	"waitfree/internal/types"
)

// E11 makes Jayanti's distinctions among the four hierarchies (Section
// 2.3) computational, via bounded protocol synthesis: exhaustive search
// over ALL deterministic 2-process protocols with at most Depth accesses
// per process over a fixed object set.
//
//   - Single objects with consensus number >= 2 (cas, sticky cell,
//     augmented queue): synthesis FINDS a protocol, independently
//     re-verified by the explorer.
//   - One test-and-set object alone: NO protocol exists within the bound
//     (h_1(TAS) = 1 — the loser can never learn the winner's proposal),
//     yet h_1^r(TAS) = 2 (the hand-written TAS2 protocol over the same
//     object plus two SRSW bits, verified exhaustively) and h_m(TAS) = 2
//     (the Theorem 5 pipeline's register-free output, E6).
//   - Registers alone — one binary register, or a pair of SRSW bits — and
//     one-use bits alone: NO protocol (the impossibility side cited in
//     Theorem 5's trivial case).
//
// Negative verdicts are exhaustive for the stated bound (and search mode);
// the paper-level claims hold for all bounds (FLP and Herlihy), which
// synthesis corroborates rather than proves.
func E11(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Hierarchy separations via bounded protocol synthesis (h_1 vs h_1^r vs h_m)",
		PaperClaim: "Jayanti: the hierarchies h_1, h_1^r, h_m, h_m^r are genuinely different " +
			"measures; the paper's Theorem 5 collapses h_m = h_m^r for deterministic types " +
			"while the single-object hierarchies stay apart.",
		Expectation: "single cas/sticky/augmented-queue: protocol found; tas alone, swap " +
			"alone, registers alone, one-use bits alone: impossible within the bound.",
		Columns: []string{"object set", "depth", "search", "assignments", "verdict"},
	}

	type tc struct {
		name      string
		objects   []synth.Object
		depth     int
		symmetric bool
		wantFound bool
	}
	cases := []tc{
		{"one cas", []synth.Object{{Name: "cas", Spec: types.CompareSwap(2, 3), Init: 2}},
			1, true, true},
		{"one sticky cell", []synth.Object{{Name: "sticky", Spec: types.StickyCell(2, 2), Init: types.StickyUnset}},
			2, true, true},
		{"one augmented queue", []synth.Object{{Name: "aq", Spec: types.AugmentedQueue(2, 2, 2), Init: types.QueueState()}},
			2, true, true},
		{"one test-and-set (h_1 side)", []synth.Object{{Name: "tas", Spec: types.TestAndSet(2), Init: 0}},
			3, false, false},
		{"one swap register", []synth.Object{{Name: "sw", Spec: types.Swap(2, 2), Init: 0}},
			3, true, false},
		{"one binary register", []synth.Object{{Name: "r", Spec: types.Register(2, 2), Init: 0}},
			2, false, false},
		{"two SRSW bits", []synth.Object{
			{Name: "r0", Spec: types.SRSWBit(), Init: 0, PortOf: []int{2, 1}},
			{Name: "r1", Spec: types.SRSWBit(), Init: 0, PortOf: []int{1, 2}},
		}, 2, false, false},
		{"two one-use bits", []synth.Object{
			{Name: "b0", Spec: types.OneUseBit(), Init: types.OneUseUnset},
			{Name: "b1", Spec: types.OneUseBit(), Init: types.OneUseUnset},
		}, 2, true, false},
	}

	allOK := true
	for _, c := range cases {
		opts := synth.Options{Depth: c.depth, Symmetric: c.symmetric, Budget: 1e9}
		st, stats, err := synth.SearchContext(ctx, c.objects, opts)
		mode := "asymmetric"
		if c.symmetric {
			mode = "symmetric"
		}
		var verdictStr string
		rowOK := false
		switch {
		case err == nil:
			verdictStr = "protocol FOUND"
			rowOK = c.wantFound
			if rowOK {
				im := synth.Implementation("synth-"+c.name, c.objects, st, opts)
				ok, verr := checkBinaryConsensus(ctx, im)
				if verr != nil {
					return nil, fmt.Errorf("E11 %s: %w", c.name, verr)
				}
				if !ok {
					verdictStr = "found but FAILED re-verification"
					rowOK = false
				} else {
					verdictStr = "protocol FOUND (re-verified exhaustively)"
				}
			}
		case errors.Is(err, synth.ErrNoProtocol):
			verdictStr = "NO protocol within bound (exhaustive)"
			rowOK = !c.wantFound
		case errors.Is(err, synth.ErrBudget):
			verdictStr = "budget exhausted (unknown)"
			rowOK = false
		default:
			return nil, fmt.Errorf("E11 %s: %w", c.name, err)
		}
		allOK = allOK && rowOK
		t.Rows = append(t.Rows, []string{
			c.name, strconv.Itoa(c.depth), mode,
			strconv.FormatInt(stats.Assignments, 10), verdictStr,
		})
	}

	// h_1^r(TAS) = 2: the hand-written protocol over the SAME single
	// test-and-set object plus two SRSW bits, verified exhaustively. (Full
	// synthesis at depth 3 over three objects exceeds a sensible budget;
	// existence is what the hierarchy value needs.)
	tasR, err := checkBinaryConsensus(ctx, consensus.TAS2())
	if err != nil {
		return nil, err
	}
	allOK = allOK && tasR
	tasRVerdict := "verification FAILED"
	if tasR {
		tasRVerdict = "protocol exists (verified exhaustively)"
	}
	t.Rows = append(t.Rows, []string{
		"one test-and-set + two SRSW bits (h_1^r side)", "3",
		"hand-written TAS2, explorer-verified", "-", tasRVerdict,
	})
	t.Rows = append(t.Rows, []string{
		"many test-and-set objects, no registers (h_m side)", "-",
		"Theorem 5 pipeline", "-", "protocol constructed and verified in E6",
	})

	t.Verdict = verdict(allOK,
		"h_1(TAS) = 1 < h_1^r(TAS) = 2 = h_m(TAS) exhibited mechanically; registers "+
			"matter for one object, and Theorem 5 says they stop mattering for many")
	return t, nil
}

func checkBinaryConsensus(ctx context.Context, im *program.Implementation) (bool, error) {
	report, err := checkConsensus(ctx, im, 2, explore.Options{})
	if err != nil {
		return false, err
	}
	return report.OK(), nil
}
