package registers

import (
	"testing"

	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/types"
)

func TestRegularBitOverlapAdversary(t *testing.T) {
	calls := 0
	b := NewRegularBit(0, func() bool {
		calls++
		return calls%2 == 1 // old, new, old, ...
	})
	b.BeginWrite(1)
	if got := b.Read(); got != 0 {
		t.Errorf("first overlapping read = %d, want old 0", got)
	}
	if got := b.Read(); got != 1 {
		t.Errorf("second overlapping read = %d, want new 1", got)
	}
	b.EndWrite()
	if got := b.Read(); got != 1 {
		t.Errorf("read after EndWrite = %d, want 1", got)
	}
}

// TestRegularBitIsNotAtomic constructs the new/old inversion explicitly
// and confirms the linearizability checker rejects it while the
// regularity checker accepts it.
func TestRegularBitIsNotAtomic(t *testing.T) {
	choices := []bool{false, true} // first overlapping read: new; second: old
	i := 0
	b := NewRegularBit(0, func() bool { v := choices[i%2]; i++; return v })
	b.BeginWrite(1)
	v1, v2 := b.Read(), b.Read()
	b.EndWrite()
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Write(1), Resp: types.OK, Begin: 0, End: 5},
		{Proc: 1, Port: 1, Inv: types.Read, Resp: types.ValOf(v1), Begin: 1, End: 2},
		{Proc: 1, Port: 1, Inv: types.Read, Resp: types.ValOf(v2), Begin: 3, End: 4},
	}
	if v1 != 1 || v2 != 0 {
		t.Fatalf("adversary produced %d then %d, want new then old", v1, v2)
	}
	if err := linearize.CheckRegular(h, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := linearize.Check(types.Register(1, 2), 0, h); err == nil {
		t.Fatal("new/old inversion accepted as atomic")
	}
}

func TestRegularBitDefaultAlternation(t *testing.T) {
	b := NewRegularBit(0, nil)
	b.BeginWrite(1)
	saw := map[int]bool{}
	for i := 0; i < 4; i++ {
		saw[b.Read()] = true
	}
	b.EndWrite()
	if !saw[0] || !saw[1] {
		t.Errorf("default adversary did not exercise both values: %v", saw)
	}
}
