package linearize

import (
	"errors"
	"math/rand"
	"testing"

	"waitfree/internal/hist"
	"waitfree/internal/types"
)

func TestRegisterLinearizable(t *testing.T) {
	reg := types.Register(3, 4)
	// w(1) overlaps r->1; then r->1 strictly after: linearizable.
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Write(1), Resp: types.OK, Begin: 0, End: 4},
		{Proc: 1, Port: 2, Inv: types.Read, Resp: types.ValOf(1), Begin: 1, End: 3},
		{Proc: 2, Port: 3, Inv: types.Read, Resp: types.ValOf(1), Begin: 5, End: 6},
	}
	w, err := Check(reg, 0, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWitness(reg, 0, h, w); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterNewOldInversion(t *testing.T) {
	reg := types.Register(3, 4)
	// Classic new/old inversion: r->1 completes before r->0 begins, both
	// after w(1) completed. Not linearizable.
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Write(1), Resp: types.OK, Begin: 0, End: 1},
		{Proc: 1, Port: 2, Inv: types.Read, Resp: types.ValOf(1), Begin: 2, End: 3},
		{Proc: 2, Port: 3, Inv: types.Read, Resp: types.ValOf(0), Begin: 4, End: 5},
	}
	if _, err := Check(reg, 0, h); !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("err = %v, want ErrNotLinearizable", err)
	}
}

func TestRegisterStaleReadDuringOverlapOK(t *testing.T) {
	reg := types.Register(2, 2)
	// A read overlapping a write may return the old value.
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Write(1), Resp: types.OK, Begin: 0, End: 5},
		{Proc: 1, Port: 2, Inv: types.Read, Resp: types.ValOf(0), Begin: 1, End: 2},
	}
	if _, err := Check(reg, 0, h); err != nil {
		t.Fatal(err)
	}
}

func TestQueueLinearizability(t *testing.T) {
	q := types.Queue(2, 3, 5)
	good := hist.History{
		{Proc: 0, Port: 1, Inv: types.Enq(1), Resp: types.OK, Begin: 0, End: 1},
		{Proc: 0, Port: 1, Inv: types.Enq(2), Resp: types.OK, Begin: 2, End: 3},
		{Proc: 1, Port: 2, Inv: types.Deq, Resp: types.ValOf(1), Begin: 4, End: 5},
		{Proc: 1, Port: 2, Inv: types.Deq, Resp: types.ValOf(2), Begin: 6, End: 7},
	}
	if _, err := Check(q, types.QueueState(), good); err != nil {
		t.Fatal(err)
	}
	// FIFO violation: strictly later enq dequeued first.
	bad := hist.History{
		{Proc: 0, Port: 1, Inv: types.Enq(1), Resp: types.OK, Begin: 0, End: 1},
		{Proc: 0, Port: 1, Inv: types.Enq(2), Resp: types.OK, Begin: 2, End: 3},
		{Proc: 1, Port: 2, Inv: types.Deq, Resp: types.ValOf(2), Begin: 4, End: 5},
		{Proc: 1, Port: 2, Inv: types.Deq, Resp: types.ValOf(1), Begin: 6, End: 7},
	}
	if _, err := Check(q, types.QueueState(), bad); !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("FIFO violation: err = %v", err)
	}
}

func TestOneUseBitNondeterministicHistory(t *testing.T) {
	b := types.OneUseBit()
	// Two sequential reads: the second hits DEAD and may return anything.
	for _, second := range []int{0, 1} {
		h := hist.History{
			{Proc: 0, Port: 1, Inv: types.Read, Resp: types.ValOf(0), Begin: 0, End: 1},
			{Proc: 0, Port: 1, Inv: types.Read, Resp: types.ValOf(second), Begin: 2, End: 3},
		}
		if _, err := Check(b, types.OneUseUnset, h); err != nil {
			t.Errorf("dead read %d: %v", second, err)
		}
	}
	// A first read of an UNSET bit must return 0.
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Read, Resp: types.ValOf(1), Begin: 0, End: 1},
	}
	if _, err := Check(b, types.OneUseUnset, h); !errors.Is(err, ErrNotLinearizable) {
		t.Fatalf("wrong unset read: err = %v", err)
	}
}

func TestConcurrentReadWriteOneUseBit(t *testing.T) {
	b := types.OneUseBit()
	// Read concurrent with the write may return 0 or 1.
	for _, v := range []int{0, 1} {
		h := hist.History{
			{Proc: 0, Port: 2, Inv: types.Write(1), Resp: types.OK, Begin: 0, End: 3},
			{Proc: 1, Port: 1, Inv: types.Read, Resp: types.ValOf(v), Begin: 1, End: 2},
		}
		if _, err := Check(b, types.OneUseUnset, h); err != nil {
			t.Errorf("concurrent read->%d: %v", v, err)
		}
	}
}

func TestTooLarge(t *testing.T) {
	reg := types.Register(1, 2)
	h := make(hist.History, MaxOps+1)
	clock := 0
	for i := range h {
		h[i] = hist.Op{Proc: 0, Port: 1, Inv: types.Read, Resp: types.ValOf(0), Begin: clock, End: clock + 1}
		clock += 2
	}
	if _, err := Check(reg, 0, h); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestEmptyHistory(t *testing.T) {
	if w, err := Check(types.Register(1, 2), 0, nil); err != nil || len(w) != 0 {
		t.Fatalf("empty history: w=%v err=%v", w, err)
	}
}

func TestInvalidHistoryRejected(t *testing.T) {
	reg := types.Register(1, 2)
	h := hist.History{{Proc: 0, Port: 1, Begin: 5, End: 1}}
	if _, err := Check(reg, 0, h); !errors.Is(err, hist.ErrBadInterval) {
		t.Fatalf("err = %v, want ErrBadInterval", err)
	}
}

func TestVerifyWitnessRejectsBadWitness(t *testing.T) {
	reg := types.Register(2, 2)
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Write(1), Resp: types.OK, Begin: 0, End: 1},
		{Proc: 1, Port: 2, Inv: types.Read, Resp: types.ValOf(1), Begin: 2, End: 3},
	}
	// Reversed order violates precedence (and sequential legality).
	if err := VerifyWitness(reg, 0, h, Witness{1, 0}); err == nil {
		t.Error("reversed witness accepted")
	}
	if err := VerifyWitness(reg, 0, h, Witness{0}); err == nil {
		t.Error("short witness accepted")
	}
	if err := VerifyWitness(reg, 0, h, Witness{0, 0}); err == nil {
		t.Error("duplicate witness accepted")
	}
	if err := VerifyWitness(reg, 0, h, Witness{0, 1}); err != nil {
		t.Errorf("correct witness rejected: %v", err)
	}
}

// TestRandomSequentialHistoriesAlwaysLinearizable generates genuinely
// sequential random register histories (which are trivially linearizable)
// and checks the checker accepts them, then perturbs one read into an
// impossible value and checks rejection.
func TestRandomSequentialHistoriesAlwaysLinearizable(t *testing.T) {
	reg := types.Register(4, 4)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var h hist.History
		cur := 0
		clock := 0
		n := 2 + rng.Intn(10)
		lastReadIdx := -1
		for i := 0; i < n; i++ {
			proc := rng.Intn(4)
			var op hist.Op
			if rng.Intn(2) == 0 {
				v := rng.Intn(4)
				op = hist.Op{Proc: proc, Port: proc + 1, Inv: types.Write(v), Resp: types.OK, Begin: clock, End: clock + 1}
				cur = v
			} else {
				op = hist.Op{Proc: proc, Port: proc + 1, Inv: types.Read, Resp: types.ValOf(cur), Begin: clock, End: clock + 1}
				lastReadIdx = len(h)
			}
			clock += 2
			h = append(h, op)
		}
		if _, err := Check(reg, 0, h); err != nil {
			t.Fatalf("trial %d: sequential history rejected: %v\n%v", trial, err, h)
		}
		if lastReadIdx >= 0 {
			bad := append(hist.History(nil), h...)
			bad[lastReadIdx].Resp = types.ValOf((bad[lastReadIdx].Resp.Val + 1) % 4)
			// The perturbed read may still be legal if an adjacent write
			// could be reordered; only check strictly-sequential cases
			// where it cannot: reads have unique values here only when no
			// overlap exists, so rejection must occur.
			if _, err := Check(reg, 0, bad); err == nil {
				// Verify by brute force that the perturbed value is truly
				// impossible: in a fully sequential history it is.
				t.Fatalf("trial %d: perturbed sequential history accepted\n%v", trial, bad)
			}
		}
	}
}

// TestCheckRegular is the table test of the single-writer regularity
// condition, including the pending-operation cases that crash-injected
// runs produce.
func TestCheckRegular(t *testing.T) {
	w := func(v, begin, end int) hist.Op {
		return hist.Op{Proc: 0, Port: 1, Inv: types.Write(v), Resp: types.OK, Begin: begin, End: end}
	}
	r := func(proc, v, begin, end int) hist.Op {
		return hist.Op{Proc: proc, Port: 1, Inv: types.Read, Resp: types.ValOf(v), Begin: begin, End: end}
	}
	pendingRead := hist.Op{Proc: 1, Port: 1, Inv: types.Read, Begin: 1, End: hist.Pending}
	for _, tc := range []struct {
		name    string
		h       hist.History
		regular bool
	}{
		{"initial_value", hist.History{r(1, 0, 1, 2)}, true},
		{"never_written_value", hist.History{r(1, 7, 1, 2)}, false},
		{"stale_read_overlapping_write", hist.History{w(1, 1, 4), r(1, 0, 2, 3)}, true},
		{"new_read_overlapping_write", hist.History{w(1, 1, 4), r(1, 1, 2, 3)}, true},
		{"stale_read_after_write", hist.History{w(1, 1, 2), r(1, 0, 3, 4)}, false},
		{"latest_of_two_preceding_writes", hist.History{w(1, 1, 2), w(2, 3, 4), r(1, 2, 5, 6)}, true},
		{"older_of_two_preceding_writes", hist.History{w(1, 1, 2), w(2, 3, 4), r(1, 1, 5, 6)}, false},
		{"new_old_inversion", hist.History{w(1, 1, 6), r(1, 1, 2, 3), r(1, 0, 4, 5)}, true},
		{"write_after_read", hist.History{r(1, 1, 1, 2), w(1, 3, 4)}, false},
		// The writer crashed mid-write: the write never completes before a
		// read, so it overlaps every read that ends after it begins.
		{"pending_write_overlaps_later_read", hist.History{w(5, 1, hist.Pending), r(1, 5, 2, 3)}, true},
		{"pending_write_keeps_initial_value", hist.History{w(5, 1, hist.Pending), r(1, 0, 2, 3)}, true},
		{"pending_write_after_read", hist.History{r(1, 5, 1, 2), w(5, 3, hist.Pending)}, false},
		{"pending_read_skipped", hist.History{pendingRead}, true},
		// A crash-injected run: the crashed write took effect, and two
		// readers around it see either value, in either order.
		{"crash_injected_run", hist.History{
			w(7, 1, hist.Pending),
			r(1, 0, 2, 3), r(1, 7, 4, 5), r(1, 7, 8, 9),
			r(2, 7, 3, 6), r(2, 0, 7, 10),
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckRegular(tc.h, 0)
			if tc.regular && err != nil {
				t.Fatalf("regular history rejected: %v", err)
			}
			if !tc.regular && !errors.Is(err, ErrNotRegular) {
				t.Fatalf("err = %v, want ErrNotRegular", err)
			}
		})
	}
}
