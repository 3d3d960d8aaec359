package types

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestInvString(t *testing.T) {
	tests := []struct {
		inv  Invocation
		want string
	}{
		{Inv("read"), "read"},
		{Inv("write", 3), "write(3)"},
		{Inv("cas", 1, 2), "cas(1,2)"},
		{Inv("faa", 0), "faa"}, // zero args print compactly
	}
	for _, tt := range tests {
		if got := tt.inv.String(); got != tt.want {
			t.Errorf("String(%#v) = %q, want %q", tt.inv, got, tt.want)
		}
	}
}

func TestInvTooManyArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv with three args did not panic")
		}
	}()
	Inv("bad", 1, 2, 3)
}

func TestResponseString(t *testing.T) {
	if got := ValOf(7).String(); got != "val(7)" {
		t.Errorf("ValOf(7).String() = %q", got)
	}
	if got := OK.String(); got != "ok" {
		t.Errorf("OK.String() = %q", got)
	}
	if got := (Response{Label: LabelWin}).String(); got != "win" {
		t.Errorf("win String() = %q", got)
	}
}

func TestRegisterTransitions(t *testing.T) {
	reg := Register(3, 4)
	next, resp, err := reg.DetApply(0, 1, Write(3))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if next != 3 || resp != OK {
		t.Fatalf("write(3) from 0: got (%v, %v)", next, resp)
	}
	next, resp, err = reg.DetApply(3, 2, Read)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if next != 3 || resp != ValOf(3) {
		t.Fatalf("read from 3: got (%v, %v)", next, resp)
	}
	if _, _, err := reg.DetApply(0, 1, Write(9)); !errors.Is(err, ErrIllegal) {
		t.Errorf("out-of-range write: err = %v, want ErrIllegal", err)
	}
	if _, _, err := reg.DetApply(0, 4, Read); !errors.Is(err, ErrBadPort) {
		t.Errorf("bad port: err = %v, want ErrBadPort", err)
	}
}

func TestRegisterReadYourWrite(t *testing.T) {
	reg := Register(2, 10)
	f := func(v uint8) bool {
		val := int(v % 10)
		next, _, err := reg.DetApply(0, 1, Write(val))
		if err != nil {
			return false
		}
		_, resp, err := reg.DetApply(next, 2, Read)
		return err == nil && resp == ValOf(val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSRSWBitPortDiscipline(t *testing.T) {
	bit := SRSWBit()
	if _, _, err := bit.DetApply(0, SRSWBitWriterPort, Read); !errors.Is(err, ErrIllegal) {
		t.Errorf("read on writer port: err = %v, want ErrIllegal", err)
	}
	if _, _, err := bit.DetApply(0, SRSWBitReaderPort, Write(1)); !errors.Is(err, ErrIllegal) {
		t.Errorf("write on reader port: err = %v, want ErrIllegal", err)
	}
	next, _, err := bit.DetApply(0, SRSWBitWriterPort, Write(1))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	_, resp, err := bit.DetApply(next, SRSWBitReaderPort, Read)
	if err != nil || resp != ValOf(1) {
		t.Fatalf("read after write: resp=%v err=%v", resp, err)
	}
}

func TestTestAndSet(t *testing.T) {
	tas := TestAndSet(2)
	next, resp, err := tas.DetApply(0, 1, TAS)
	if err != nil || next != 1 || resp != ValOf(0) {
		t.Fatalf("first tas: (%v, %v, %v)", next, resp, err)
	}
	next, resp, err = tas.DetApply(next, 2, TAS)
	if err != nil || next != 1 || resp != ValOf(1) {
		t.Fatalf("second tas: (%v, %v, %v)", next, resp, err)
	}
}

func TestSwap(t *testing.T) {
	sw := Swap(2, 3)
	next, resp, err := sw.DetApply(1, 1, Inv(OpSwap, 2))
	if err != nil || next != 2 || resp != ValOf(1) {
		t.Fatalf("swap(2) from 1: (%v, %v, %v)", next, resp, err)
	}
}

func TestFetchAdd(t *testing.T) {
	faa := FetchAdd(2)
	q := State(0)
	for i := 0; i < 5; i++ {
		next, resp, err := faa.DetApply(q, 1, Inv(OpFAA, 1))
		if err != nil {
			t.Fatal(err)
		}
		if resp != ValOf(i) {
			t.Fatalf("faa #%d returned %v", i, resp)
		}
		q = next
	}
	_, resp, err := faa.DetApply(q, 2, Inv(OpFAA, 0))
	if err != nil || resp != ValOf(5) {
		t.Fatalf("faa(0): (%v, %v)", resp, err)
	}
}

func TestCompareSwap(t *testing.T) {
	cas := CompareSwap(3, 3)
	next, resp, err := cas.DetApply(0, 1, Inv(OpCAS, 0, 2))
	if err != nil || next != 2 || resp != (Response{Label: CASOld, Val: 0}) {
		t.Fatalf("successful cas: (%v, %v, %v)", next, resp, err)
	}
	next, resp, err = cas.DetApply(next, 2, Inv(OpCAS, 0, 1))
	if err != nil || next != 2 || resp != (Response{Label: CASOld, Val: 2}) {
		t.Fatalf("failed cas: (%v, %v, %v)", next, resp, err)
	}
}

func TestStickyCell(t *testing.T) {
	sc := StickyCell(3, 2)
	next, _, err := sc.DetApply(StickyUnset, 1, Inv(OpStick, 1))
	if err != nil || next != 1 {
		t.Fatalf("first stick: (%v, %v)", next, err)
	}
	next, _, err = sc.DetApply(next, 2, Inv(OpStick, 0))
	if err != nil || next != 1 {
		t.Fatalf("second stick must not change value: (%v, %v)", next, err)
	}
	_, resp, err := sc.DetApply(next, 3, Read)
	if err != nil || resp != ValOf(1) {
		t.Fatalf("read: (%v, %v)", resp, err)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := Queue(2, 3, 4)
	st := QueueState()
	for _, v := range []int{2, 0, 1} {
		next, resp, err := q.DetApply(st, 1, Enq(v))
		if err != nil || resp != OK {
			t.Fatalf("enq(%d): (%v, %v)", v, resp, err)
		}
		st = next
	}
	for _, want := range []int{2, 0, 1} {
		next, resp, err := q.DetApply(st, 2, Deq)
		if err != nil || resp != ValOf(want) {
			t.Fatalf("deq: got %v want val(%d) (err %v)", resp, want, err)
		}
		st = next
	}
	_, resp, err := q.DetApply(st, 2, Deq)
	if err != nil || resp.Label != LabelEmpty {
		t.Fatalf("deq on empty: (%v, %v)", resp, err)
	}
}

func TestQueueCapacity(t *testing.T) {
	q := Queue(2, 2, 2)
	st := QueueState(0, 1)
	_, resp, err := q.DetApply(st, 1, Enq(0))
	if err != nil || resp.Label != LabelFull {
		t.Fatalf("enq at capacity: (%v, %v)", resp, err)
	}
}

func TestStackLIFO(t *testing.T) {
	s := Stack(2, 3, 4)
	st := QueueState()
	for _, v := range []int{2, 0, 1} {
		next, _, err := s.DetApply(st, 1, Push(v))
		if err != nil {
			t.Fatal(err)
		}
		st = next
	}
	for _, want := range []int{1, 0, 2} {
		next, resp, err := s.DetApply(st, 2, Pop)
		if err != nil || resp != ValOf(want) {
			t.Fatalf("pop: got %v want val(%d) (err %v)", resp, want, err)
		}
		st = next
	}
}

func TestConsensusType(t *testing.T) {
	c := Consensus(3)
	next, resp, err := c.DetApply(ConsensusUndecided, 1, Propose(1))
	if err != nil || next != 1 || resp != ValOf(1) {
		t.Fatalf("first propose: (%v, %v, %v)", next, resp, err)
	}
	// All later proposals, on any port and with any value, return the
	// consensus value.
	for port := 1; port <= 3; port++ {
		for v := 0; v <= 1; v++ {
			n2, r2, err := c.DetApply(next, port, Propose(v))
			if err != nil || n2 != 1 || r2 != ValOf(1) {
				t.Fatalf("propose(%d)@%d after decide: (%v, %v, %v)", v, port, n2, r2, err)
			}
		}
	}
}

func TestOneUseBitMatchesPaperTable(t *testing.T) {
	b := OneUseBit()
	tests := []struct {
		state string
		inv   Invocation
		want  []Transition
	}{
		{OneUseUnset, Read, []Transition{{Next: OneUseDead, Resp: ValOf(0)}}},
		{OneUseSet, Read, []Transition{{Next: OneUseDead, Resp: ValOf(1)}}},
		{OneUseDead, Read, []Transition{
			{Next: OneUseDead, Resp: ValOf(0)},
			{Next: OneUseDead, Resp: ValOf(1)},
		}},
		{OneUseUnset, Write(1), []Transition{{Next: OneUseSet, Resp: OK}}},
		{OneUseSet, Write(1), []Transition{{Next: OneUseDead, Resp: OK}}},
		{OneUseDead, Write(1), []Transition{{Next: OneUseDead, Resp: OK}}},
	}
	for _, tt := range tests {
		got, err := b.Apply(tt.state, 1, tt.inv)
		if err != nil {
			t.Fatalf("%s/%v: %v", tt.state, tt.inv, err)
		}
		if len(got) != len(tt.want) {
			t.Fatalf("%s/%v: %d transitions, want %d", tt.state, tt.inv, len(got), len(tt.want))
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("%s/%v[%d] = %+v, want %+v", tt.state, tt.inv, i, got[i], tt.want[i])
			}
		}
	}
}

func TestWeakLeaderExactlyOneWinner(t *testing.T) {
	wl := WeakLeader(2)
	// Enumerate both nondeterministic resolutions of the first access and
	// check that among the first two accesses there is exactly one win.
	first, err := wl.Apply(weakFresh, 1, TAS)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 {
		t.Fatalf("first access has %d outcomes, want 2", len(first))
	}
	for _, t1 := range first {
		second, err := wl.Apply(t1.Next, 2, TAS)
		if err != nil {
			t.Fatal(err)
		}
		if len(second) != 1 {
			t.Fatalf("second access has %d outcomes, want 1", len(second))
		}
		wins := 0
		if t1.Resp.Label == LabelWin {
			wins++
		}
		if second[0].Resp.Label == LabelWin {
			wins++
		}
		if wins != 1 {
			t.Errorf("resolution %v/%v: %d winners, want exactly 1", t1.Resp, second[0].Resp, wins)
		}
		// Third access always loses.
		third, err := wl.Apply(second[0].Next, 1, TAS)
		if err != nil {
			t.Fatal(err)
		}
		if third[0].Resp.Label != LabelLose {
			t.Errorf("third access = %v, want lose", third[0].Resp)
		}
	}
}

func TestLatchFlagBehavior(t *testing.T) {
	lf := LatchFlag()
	apply := func(q State, port int, inv Invocation) (State, Response) {
		t.Helper()
		next, resp, err := lf.DetApply(q, port, inv)
		if err != nil {
			t.Fatal(err)
		}
		return next, resp
	}
	// H1 = probe; probe from the zero state returns 0, 0.
	q, _ := apply(LatchFlagInit(), 1, Inv(OpProbe))
	if _, r := apply(q, 1, Inv(OpProbe)); r != ValOf(0) {
		t.Fatalf("H1 return value = %v, want val(0)", r)
	}
	// H2 = set; probe; probe returns ok, 0, 1 — the last response differs.
	q, _ = apply(LatchFlagInit(), 2, Inv(OpSet))
	q, first := apply(q, 1, Inv(OpProbe))
	if _, r := apply(q, 1, Inv(OpProbe)); r != ValOf(1) {
		t.Fatalf("H2 return value = %v, want val(1)", r)
	}
	// A single probe cannot distinguish: it answers 0 regardless of set.
	if first != ValOf(0) {
		t.Fatalf("first probe after set = %v, want val(0)", first)
	}
}

func TestReachableRegister(t *testing.T) {
	reg := Register(2, 3)
	states, err := Reachable(reg, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 {
		t.Fatalf("reachable register states = %d, want 3 (%s)", len(states), FormatStates(states))
	}
}

func TestReachableLimit(t *testing.T) {
	faa := FetchAdd(2)
	_, err := Reachable(faa, 0, 10)
	if !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Fatalf("unbounded counter: err = %v, want ErrStateSpaceTooLarge", err)
	}
}

func TestCheckDeterministic(t *testing.T) {
	if err := CheckDeterministic(Register(2, 4), 0, 100); err != nil {
		t.Errorf("register: %v", err)
	}
	if err := CheckDeterministic(Queue(2, 2, 3), QueueState(), 100); err != nil {
		t.Errorf("queue: %v", err)
	}
	if err := CheckDeterministic(OneUseBit(), OneUseUnset, 100); err == nil {
		t.Error("one-use bit reported deterministic; its DEAD reads branch")
	}
	if err := CheckDeterministic(WeakLeader(2), weakFresh, 100); err == nil {
		t.Error("weak-leader reported deterministic")
	}
}

func TestCheckOblivious(t *testing.T) {
	for _, spec := range []*Spec{Register(3, 3), TestAndSet(3), Queue(3, 2, 3), OneUseBit(), WeakLeader(3)} {
		var init State
		switch spec.Name {
		case "queue":
			init = QueueState()
		case "one-use-bit":
			init = OneUseUnset
		default:
			init = 0
		}
		if spec.Name == "sticky-cell" {
			init = StickyUnset
		}
		if err := CheckOblivious(spec, init, 200); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
	if err := CheckOblivious(SRSWBit(), 0, 100); err == nil {
		t.Error("srsw-bit reported oblivious; its ports differ")
	}
	if err := CheckOblivious(LatchFlag(), LatchFlagInit(), 100); err == nil {
		t.Error("latch-flag reported oblivious; its ports differ")
	}
}

func TestSeqHistoryValidate(t *testing.T) {
	tas := TestAndSet(2)
	h := SeqHistory{
		{Port: 1, Inv: TAS, Resp: ValOf(0)},
		{Port: 2, Inv: TAS, Resp: ValOf(1)},
	}
	final, err := h.Validate(tas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final != 1 {
		t.Fatalf("final state = %v, want 1", final)
	}
	bad := SeqHistory{
		{Port: 1, Inv: TAS, Resp: ValOf(1)}, // first tas must return 0
	}
	if _, err := bad.Validate(tas, 0); err == nil {
		t.Error("invalid history accepted")
	}
}

func TestSeqHistoryValidateNondeterministic(t *testing.T) {
	b := OneUseBit()
	// DEAD reads may return either value; both must validate.
	for _, v := range []int{0, 1} {
		h := SeqHistory{
			{Port: 1, Inv: Read, Resp: ValOf(0)},
			{Port: 1, Inv: Read, Resp: ValOf(v)},
		}
		if _, err := h.Validate(b, OneUseUnset); err != nil {
			t.Errorf("dead read returning %d rejected: %v", v, err)
		}
	}
}

func TestSeqHistoryString(t *testing.T) {
	h := SeqHistory{{Port: 1, Inv: Read, Resp: ValOf(0)}}
	if got := h.String(); !strings.Contains(got, "p1:read->val(0)") {
		t.Errorf("String() = %q", got)
	}
}

// Property: a queue is a faithful FIFO against a reference slice model for
// arbitrary operation sequences.
func TestQueueAgainstModel(t *testing.T) {
	spec := Queue(2, 4, 8)
	f := func(ops []uint8) bool {
		st := QueueState()
		var model []int
		for _, op := range ops {
			if op%5 == 0 { // deq
				next, resp, err := spec.DetApply(st, 1, Deq)
				if err != nil {
					return false
				}
				if len(model) == 0 {
					if resp.Label != LabelEmpty {
						return false
					}
				} else {
					if resp != ValOf(model[0]) {
						return false
					}
					model = model[1:]
				}
				st = next
			} else { // enq
				v := int(op % 4)
				next, resp, err := spec.DetApply(st, 2, Enq(v))
				if err != nil {
					return false
				}
				if len(model) >= 8 {
					if resp.Label != LabelFull {
						return false
					}
				} else {
					if resp != OK {
						return false
					}
					model = append(model, v)
				}
				st = next
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: sticky cells never change value after the first stick.
func TestStickyCellProperty(t *testing.T) {
	spec := StickyCell(2, 4)
	f := func(vals []uint8) bool {
		st := State(StickyUnset)
		fixed := StickyUnset
		for _, raw := range vals {
			v := int(raw % 4)
			next, _, err := spec.DetApply(st, 1, Inv(OpStick, v))
			if err != nil {
				return false
			}
			if fixed == StickyUnset {
				fixed = v
			}
			st = next
			_, resp, err := spec.DetApply(st, 2, Read)
			if err != nil || resp != ValOf(fixed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMultiConsensusType(t *testing.T) {
	c := MultiConsensus(3, 5)
	next, resp, err := c.DetApply(ConsensusUndecided, 1, Propose(4))
	if err != nil || next != 4 || resp != ValOf(4) {
		t.Fatalf("first propose: (%v, %v, %v)", next, resp, err)
	}
	_, resp, err = c.DetApply(next, 2, Propose(0))
	if err != nil || resp != ValOf(4) {
		t.Fatalf("later propose: (%v, %v)", resp, err)
	}
	if _, _, err := c.DetApply(ConsensusUndecided, 1, Propose(5)); !errors.Is(err, ErrIllegal) {
		t.Errorf("out-of-range proposal: err = %v", err)
	}
	if len(c.Alphabet) != 5 {
		t.Errorf("alphabet size = %d", len(c.Alphabet))
	}
}

func TestSRSWRegisterType(t *testing.T) {
	r := SRSWRegister(5)
	next, _, err := r.DetApply(0, SRSWBitWriterPort, Write(4))
	if err != nil || next != 4 {
		t.Fatalf("write: (%v, %v)", next, err)
	}
	_, resp, err := r.DetApply(next, SRSWBitReaderPort, Read)
	if err != nil || resp != ValOf(4) {
		t.Fatalf("read: (%v, %v)", resp, err)
	}
	if _, _, err := r.DetApply(0, SRSWBitReaderPort, Write(1)); !errors.Is(err, ErrIllegal) {
		t.Errorf("write on reader port: err = %v", err)
	}
	if _, _, err := r.DetApply(0, SRSWBitWriterPort, Read); !errors.Is(err, ErrIllegal) {
		t.Errorf("read on writer port: err = %v", err)
	}
	if _, _, err := r.DetApply(0, SRSWBitWriterPort, Write(5)); !errors.Is(err, ErrIllegal) {
		t.Errorf("out-of-range write: err = %v", err)
	}
}

func TestAugmentedQueueType(t *testing.T) {
	aq := AugmentedQueue(3, 2, 4)
	st := QueueState()
	// Peek on empty.
	_, resp, err := aq.DetApply(st, 1, Peek)
	if err != nil || resp.Label != LabelEmpty {
		t.Fatalf("peek empty: (%v, %v)", resp, err)
	}
	// Enqueue 1, 0; peek sees the first without consuming.
	st, _, err = aq.DetApply(st, 1, Enq(1))
	if err != nil {
		t.Fatal(err)
	}
	st, _, err = aq.DetApply(st, 2, Enq(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		next, resp, err := aq.DetApply(st, 3, Peek)
		if err != nil || resp != ValOf(1) {
			t.Fatalf("peek #%d: (%v, %v)", i, resp, err)
		}
		if next != st {
			t.Fatalf("peek mutated state: %v -> %v", st, next)
		}
	}
	// Deq still works through the base behavior.
	st, resp, err = aq.DetApply(st, 1, Deq)
	if err != nil || resp != ValOf(1) {
		t.Fatalf("deq: (%v, %v)", resp, err)
	}
	_, resp, err = aq.DetApply(st, 1, Peek)
	if err != nil || resp != ValOf(0) {
		t.Fatalf("peek after deq: (%v, %v)", resp, err)
	}
}

func TestFetchAndConsType(t *testing.T) {
	fc := FetchAndCons(3, 2, 3)
	st := State("")
	next, resp, err := fc.DetApply(st, 1, Cons(1))
	if err != nil || resp != ValOf(1) { // empty list encodes as 1
		t.Fatalf("first cons: (%v, %v)", resp, err)
	}
	st = next
	next, resp, err = fc.DetApply(st, 2, Cons(0))
	if err != nil || resp != ValOf(11) { // list "1" encodes as 11
		t.Fatalf("second cons: (%v, %v)", resp, err)
	}
	st = next
	_, resp, err = fc.DetApply(st, 3, Cons(1))
	if err != nil {
		t.Fatal(err)
	}
	prev := DecodeList(resp.Val)
	if len(prev) != 2 || prev[0] != 0 || prev[1] != 1 {
		t.Fatalf("decoded previous list = %v, want [0 1]", prev)
	}
	// Capacity.
	full := State("010")
	_, resp, err = fc.DetApply(full, 1, Cons(1))
	if err != nil || resp.Label != LabelFull {
		t.Fatalf("cons at capacity: (%v, %v)", resp, err)
	}
}

func TestDecodeListRoundTrip(t *testing.T) {
	for _, s := range []string{"", "1", "01", "110", "0101"} {
		got := DecodeList(encodeList(s))
		if len(got) != len(s) {
			t.Fatalf("%q: decoded %v", s, got)
		}
		for i := range got {
			if got[i] != int(s[i]-'0') {
				t.Fatalf("%q: decoded %v", s, got)
			}
		}
	}
}
