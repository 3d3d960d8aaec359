package experiments

import (
	"context"
	"fmt"
	"strconv"

	"waitfree/internal/explore"
	"waitfree/internal/linearize"
	"waitfree/internal/onebit"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// E1 reproduces Section 4.3: an (w+1) x r array of one-use bits implements
// a bounded-use single-reader single-writer atomic bit.
//
// Exhaustive part: for each (r, w, write pattern), explore every
// interleaving of the reader's r reads and the writer's w writes and check
// each complete history linearizable against the SRSW bit type, and that
// no one-use bit is read or written more than once. Sampled part: the same
// machines at r = 24, w = 23 along 40 seeded walks (explore.Walk).
func E1(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Bounded-use SRSW bit from one-use bits (Section 4.3)",
		PaperClaim: "A bit read at most r times and written at most w times is implemented " +
			"wait-free by an (w+1) x r array of one-use bits, each read once and written once.",
		Expectation: "Every interleaving linearizes; bits used = (w+1)*r; one-use discipline holds.",
		Columns: []string{"r", "w", "init", "writes", "one-use bits", "interleavings",
			"linearizable", "one-use discipline"},
	}
	allOK := true
	for _, tc := range e1Cases {
		im, scripts := tc.instance()
		linearizable := true
		opts := explore.Options{
			RecordHistory: true,
			OnLeaf: func(l *explore.Leaf) error {
				if _, err := linearize.Check(types.SRSWBit(), tc.init, l.History()); err != nil {
					linearizable = false
					return err
				}
				return nil
			},
		}
		res, err := explore.RunContext(ctx, im, scripts, opts)
		if err != nil {
			return nil, fmt.Errorf("E1 r=%d w=%d: %w", tc.r, tc.w, err)
		}
		if res.Violation != nil {
			linearizable = false
		}
		discipline := true
		for _, ops := range res.OpAccess {
			if ops[types.OpRead] > 1 || ops[types.OpWrite] > 1 {
				discipline = false
			}
		}
		allOK = allOK && linearizable && discipline
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(tc.r), strconv.Itoa(tc.w), strconv.Itoa(tc.init),
			fmt.Sprint(tc.writes), strconv.Itoa((tc.w + 1) * tc.r),
			strconv.FormatInt(res.Leaves, 10), yn(linearizable), yn(discipline),
		})
	}

	// Sample the same machines at a size the explorer cannot enumerate.
	sampledOK, seeds, err := e1Sampled(ctx)
	if err != nil {
		return nil, err
	}
	allOK = allOK && sampledOK
	t.Rows = append(t.Rows, []string{
		"24", "23", "0", "alternating", strconv.Itoa(24 * 24),
		fmt.Sprintf("%d seeded schedules", seeds), yn(sampledOK), "yes (by construction)",
	})

	t.Verdict = verdict(allOK,
		"all interleavings of every (r, w) case linearize against the SRSW bit type "+
			"and every one-use bit is used at most once in each role")
	return t, nil
}

// e1Case is one exhaustive row of E1: an r-read reader against a writer
// of the given writes, on a bit initialized to init.
type e1Case struct {
	r, w, init int
	writes     []int
}

// e1Cases are E1's exhaustive rows.
var e1Cases = []e1Case{
	{1, 1, 0, []int{1}},
	{2, 1, 0, []int{1}},
	{2, 2, 0, []int{1, 0}},
	{3, 2, 1, []int{0, 1}},
	{2, 3, 0, []int{1, 0, 1}},
	{3, 3, 0, []int{1, 1, 0}}, // includes a redundant write
}

// instance builds the row's implementation and its reader and writer
// scripts.
func (tc e1Case) instance() (*program.Implementation, [][]types.Invocation) {
	reads := make([]types.Invocation, tc.r)
	for i := range reads {
		reads[i] = types.Read
	}
	writes := make([]types.Invocation, len(tc.writes))
	for i, x := range tc.writes {
		writes[i] = types.Write(x)
	}
	return onebit.Implementation(tc.r, tc.w, tc.init), [][]types.Invocation{reads, writes}
}

// e1Sampled walks the Section 4.3 machines at r = 24, w = 23 under seeded
// schedules and checks each walk's history against the SRSW bit type. ctx
// is checked between walks.
func e1Sampled(ctx context.Context) (bool, int, error) {
	const seeds, r, w = 40, 24, 23
	im := onebit.Implementation(r, w, 0)
	reads := make([]types.Invocation, r)
	for i := range reads {
		reads[i] = types.Read
	}
	writes := make([]types.Invocation, w)
	for i := range writes {
		writes[i] = types.Write((i + 1) % 2)
	}
	for seed := int64(0); seed < seeds; seed++ {
		if err := ctx.Err(); err != nil {
			return false, seeds, err
		}
		walked, err := explore.Walk(im, [][]types.Invocation{reads, writes}, explore.Schedule{Seed: seed})
		if err != nil {
			return false, seeds, nil
		}
		if _, err := linearize.Check(types.SRSWBit(), 0, walked.History); err != nil {
			return false, seeds, nil
		}
	}
	return true, seeds, nil
}
