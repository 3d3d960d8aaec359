package experiments

import (
	"context"
	"fmt"
	"strconv"

	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/program"
)

// E3 reproduces Section 4.2: every wait-free consensus implementation has
// a uniform access bound D, obtained by exploring its (finitely many)
// finite execution trees. The explorer computes D exactly, per protocol,
// along with the tree sizes the Koenig-lemma argument reasons about.
func E3(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E3",
		Title: "Access bounds in wait-free consensus (Section 4.2)",
		PaperClaim: "For every wait-free consensus implementation there exist bounds r_b, w_b " +
			"such that no execution accesses base object b more often; the 2^n execution " +
			"trees are finite and D is their maximum depth.",
		Expectation: "D finite for every correct protocol; D grows with protocol length and " +
			"process count; the broken register-only protocol still has finite trees but " +
			"fails agreement.",
		Columns: []string{"protocol", "procs", "roots (2^n)", "nodes", "leaves", "D",
			"max accesses/object", "verdict"},
	}
	cases := []struct {
		name string
		mk   func() *program.Implementation
		ok   bool // expected overall verdict
	}{
		{"tas-2consensus", consensus.TAS2, true},
		{"queue-2consensus", consensus.Queue2, true},
		{"stack-2consensus", consensus.Stack2, true},
		{"faa-2consensus", consensus.FAA2, true},
		{"swap-2consensus", consensus.Swap2, true},
		{"weakleader-2consensus", consensus.WeakLeader2, true},
		{"cas-consensus (n=2)", func() *program.Implementation { return consensus.CAS(2) }, true},
		{"cas-consensus (n=3)", func() *program.Implementation { return consensus.CAS(3) }, true},
		{"cas-consensus (n=4)", func() *program.Implementation { return consensus.CAS(4) }, true},
		{"sticky-consensus (n=3)", func() *program.Implementation { return consensus.Sticky(3) }, true},
		{"cas-register-3consensus", consensus.CASRegister3, true},
		{"naive-register-2consensus", consensus.NaiveRegister2, false},
	}
	allOK := true
	for _, tc := range cases {
		im := tc.mk()
		report, err := checkConsensus(ctx, im, 2, explore.Options{Memoize: im.Procs > 2})
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", tc.name, err)
		}
		maxAcc := 0
		for _, a := range report.MaxAccess {
			if a > maxAcc {
				maxAcc = a
			}
		}
		rowOK := report.OK() == tc.ok
		allOK = allOK && rowOK
		status := "correct"
		if !report.OK() {
			status = "agreement violated (expected: registers cannot solve consensus)"
		}
		t.Rows = append(t.Rows, []string{
			tc.name, strconv.Itoa(im.Procs), strconv.Itoa(report.Roots),
			strconv.FormatInt(report.Nodes, 10), strconv.FormatInt(report.Leaves, 10),
			strconv.Itoa(report.Depth), strconv.Itoa(maxAcc), status,
		})
	}
	t.Verdict = verdict(allOK,
		"every correct protocol has finite trees with the expected exact D; "+
			"bounds r_b, w_b fall out per object and operation")
	return t, nil
}
