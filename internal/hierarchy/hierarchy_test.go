package hierarchy

import (
	"context"
	"errors"
	"strings"
	"testing"

	"waitfree/internal/types"
)

func TestTrivialityOblivious(t *testing.T) {
	tests := []struct {
		name    string
		spec    *types.Spec
		inits   []types.State
		trivial bool
	}{
		{"beacon", types.Beacon(2), []types.State{0}, true},
		{"blinker", types.Blinker(2), []types.State{0}, true},
		{"inc-only", types.IncOnly(2), []types.State{0}, true},
		{"toggle", types.Toggle(2), []types.State{0}, false},
		{"register", types.Register(2, 2), []types.State{0}, false},
		{"tas", types.TestAndSet(2), []types.State{0}, false},
		{"queue", types.Queue(2, 2, 3), []types.State{types.QueueState()}, false},
		{"sticky-cell", types.StickyCell(2, 2), []types.State{types.StickyUnset}, false},
	}
	for _, tt := range tests {
		got, err := IsTrivialOblivious(tt.spec, tt.inits, 64)
		if err != nil {
			t.Errorf("%s: %v", tt.name, err)
			continue
		}
		if got != tt.trivial {
			t.Errorf("%s: trivial = %v, want %v", tt.name, got, tt.trivial)
		}
	}
}

func TestTrivialityGeneral(t *testing.T) {
	trivial, err := IsTrivial(types.Beacon(2), []types.State{0}, 3)
	if err != nil || !trivial {
		t.Errorf("beacon: trivial=%v err=%v", trivial, err)
	}
	trivial, err = IsTrivial(types.LatchFlag(), []types.State{types.LatchFlagInit()}, 3)
	if err != nil || trivial {
		t.Errorf("latch-flag: trivial=%v err=%v, want non-trivial", trivial, err)
	}
	// With k capped below the latch-flag's pair length (2), the bounded
	// verdict is "trivial up to the bound".
	trivial, err = IsTrivial(types.LatchFlag(), []types.State{types.LatchFlagInit()}, 1)
	if err != nil || !trivial {
		t.Errorf("latch-flag k=1: trivial=%v err=%v, want trivial-up-to-bound", trivial, err)
	}
}

func TestTrivialityRejectsNondeterministic(t *testing.T) {
	if _, err := IsTrivialOblivious(types.OneUseBit(), []types.State{types.OneUseUnset}, 16); !errors.Is(err, ErrNondeterministic) {
		t.Errorf("err = %v, want ErrNondeterministic", err)
	}
	if _, err := FindPair(types.WeakLeader(2), []types.State{0}, 2); !errors.Is(err, ErrNondeterministic) {
		t.Errorf("err = %v, want ErrNondeterministic", err)
	}
}

// verifyObliviousWitness replays the witness against the spec.
func verifyObliviousWitness(t *testing.T, spec *types.Spec, w *ObliviousWitness) {
	t.Helper()
	ts := spec.Step(w.Q, 1, w.I)
	if len(ts) == 0 || ts[0].Resp != w.RQ {
		t.Fatalf("witness RQ mismatch: %v", w)
	}
	step := spec.Step(w.Q, 1, w.IW)
	if len(step) == 0 || step[0].Next != w.P {
		t.Fatalf("witness P mismatch: %v", w)
	}
	ps := spec.Step(w.P, 1, w.I)
	if len(ps) == 0 || ps[0].Resp != w.RP {
		t.Fatalf("witness RP mismatch: %v", w)
	}
	if w.RQ == w.RP {
		t.Fatalf("witness responses equal: %v", w)
	}
}

func TestObliviousWitnesses(t *testing.T) {
	tests := []struct {
		name  string
		spec  *types.Spec
		inits []types.State
	}{
		{"tas", types.TestAndSet(2), []types.State{0}},
		{"register", types.Register(2, 2), []types.State{0}},
		{"queue", types.Queue(2, 2, 3), []types.State{types.QueueState()}},
		{"stack", types.Stack(2, 2, 3), []types.State{types.QueueState()}},
		{"faa", types.FetchAdd(2), []types.State{0}},
		{"cas", types.CompareSwap(2, 3), []types.State{2}},
		{"swap", types.Swap(2, 2), []types.State{0}},
		{"sticky-cell", types.StickyCell(2, 2), []types.State{types.StickyUnset}},
		{"toggle", types.Toggle(2), []types.State{0}},
		{"consensus", types.Consensus(2), []types.State{types.ConsensusUndecided}},
	}
	for _, tt := range tests {
		w, err := FindObliviousWitness(tt.spec, tt.inits, 64)
		if err != nil {
			t.Errorf("%s: %v", tt.name, err)
			continue
		}
		verifyObliviousWitness(t, tt.spec, w)
	}
}

func TestObliviousWitnessAbsentForTrivial(t *testing.T) {
	for _, spec := range []*types.Spec{types.Beacon(2), types.Blinker(2), types.IncOnly(2)} {
		if _, err := FindObliviousWitness(spec, []types.State{0}, 64); !errors.Is(err, ErrNoWitness) {
			t.Errorf("%s: err = %v, want ErrNoWitness", spec.Name, err)
		}
	}
}

// verifyPair replays both histories of a pair and checks the return values
// really differ.
func verifyPair(t *testing.T, spec *types.Spec, p *Pair) {
	t.Helper()
	r1, ok := runSeq(spec, p.Q, p.ReadPort, p.Seq)
	if !ok || r1 != p.R1 {
		t.Fatalf("H1 replay mismatch: got %v ok=%v, pair %v", r1, ok, p)
	}
	step := spec.Step(p.Q, p.WritePort, p.IW)
	if len(step) == 0 {
		t.Fatalf("IW illegal: %v", p)
	}
	r2, ok := runSeq(spec, step[0].Next, p.ReadPort, p.Seq)
	if !ok || r2 != p.R2 {
		t.Fatalf("H2 replay mismatch: got %v ok=%v, pair %v", r2, ok, p)
	}
	if p.R1 == p.R2 {
		t.Fatalf("pair responses equal: %v", p)
	}
}

func TestFindPairObliviousTypesHaveK1Pairs(t *testing.T) {
	tests := []struct {
		name  string
		spec  *types.Spec
		inits []types.State
	}{
		{"tas", types.TestAndSet(2), []types.State{0}},
		{"register", types.Register(2, 2), []types.State{0}},
		{"queue", types.Queue(2, 2, 3), []types.State{types.QueueState()}},
		{"faa", types.FetchAdd(2), []types.State{0}},
	}
	for _, tt := range tests {
		p, err := FindPair(tt.spec, tt.inits, 3)
		if err != nil {
			t.Errorf("%s: %v", tt.name, err)
			continue
		}
		if p.K() != 1 {
			t.Errorf("%s: minimal pair has k = %d, want 1", tt.name, p.K())
		}
		verifyPair(t, tt.spec, p)
	}
}

func TestFindPairLatchFlagNeedsK2(t *testing.T) {
	spec := types.LatchFlag()
	inits := []types.State{types.LatchFlagInit()}
	if _, err := FindPair(spec, inits, 1); !errors.Is(err, ErrNoWitness) {
		t.Fatalf("k=1 search: err = %v, want ErrNoWitness (single probes are constant)", err)
	}
	p, err := FindPair(spec, inits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 2 {
		t.Errorf("pair k = %d, want 2", p.K())
	}
	if p.ReadPort != 1 || p.WritePort != 2 {
		t.Errorf("ports = %d/%d, want 1/2", p.ReadPort, p.WritePort)
	}
	verifyPair(t, spec, p)
}

func TestClassifyZoo(t *testing.T) {
	cs, err := ClassifyZooContext(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*Classification, len(cs))
	for _, c := range cs {
		byName[c.Name] = c
	}

	wantTrivial := map[string]bool{"beacon": true, "blinker": true, "inc-only": true}
	for name, c := range byName {
		if !c.Deterministic {
			continue
		}
		if c.Trivial != wantTrivial[name] {
			t.Errorf("%s: trivial = %v, want %v", name, c.Trivial, wantTrivial[name])
		}
		if !c.Trivial && c.Pair == nil {
			t.Errorf("%s: non-trivial but no pair", name)
		}
		if !c.Trivial && c.Oblivious && c.ObliviousWitness == nil {
			t.Errorf("%s: oblivious non-trivial but no Section 5.1 witness", name)
		}
		if !strings.Contains(c.Theorem5, "h_m = h_m^r") {
			t.Errorf("%s: deterministic type should conclude equality, got %q", name, c.Theorem5)
		}
	}

	// The nondeterministic members.
	if c := byName["weak-leader"]; !strings.Contains(c.Theorem5, "separation") {
		t.Errorf("weak-leader: %q", c.Theorem5)
	}
	if c := byName["one-use-bit"]; !strings.Contains(c.Theorem5, "inapplicable") {
		t.Errorf("one-use-bit: %q", c.Theorem5)
	}
	if len(cs) < 15 {
		t.Errorf("zoo has only %d classified members", len(cs))
	}
}

func TestPairAndWitnessStrings(t *testing.T) {
	p, err := FindPair(types.TestAndSet(2), []types.State{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.String(); !strings.Contains(s, "H1") || !strings.Contains(s, "H2") {
		t.Errorf("Pair.String() = %q", s)
	}
	w, err := FindObliviousWitness(types.TestAndSet(2), []types.State{0}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s := w.String(); !strings.Contains(s, "answers") {
		t.Errorf("ObliviousWitness.String() = %q", s)
	}
}

// TestFindPairSearchesReachableStates pins the start-state expansion: the
// paper's minimality argument quantifies over ALL states an implementation
// may initialize an object to, so pairs may start from reachable non-init
// states. A queue initialized empty still yields the k=1 pair starting
// from a reachable nonempty state via its declared init only — and a type
// whose ONLY distinguishing start state is non-initial is still witnessed.
func TestFindPairSearchesReachableStates(t *testing.T) {
	// The sticky cell's pair must start from the unstuck state; from any
	// stuck state no invocation distinguishes. Restricting inits to a
	// stuck state would make it trivial-looking — but expansion cannot
	// help there because unstuck is unreachable from stuck.
	if _, err := FindPair(types.StickyCell(2, 2), []types.State{0}, 3); !errors.Is(err, ErrNoWitness) {
		t.Errorf("stuck-only sticky cell: err = %v, want ErrNoWitness (stuck cells are inert)", err)
	}
	// From the unstuck init it is found immediately.
	p, err := FindPair(types.StickyCell(2, 2), []types.State{types.StickyUnset}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 1 {
		t.Errorf("sticky pair k = %d", p.K())
	}
	// The latch-flag demonstrates expansion mattering: its minimal pair
	// exists from every reachable state, all with k = 2 (no single probe
	// ever distinguishes) — see TestFindPairLatchFlagNeedsK2.
}

// TestClassifyNoisySticky pins the nondeterministic h_m >= 2 case's
// classification: Theorem 5 applies via the second route.
func TestClassifyNoisySticky(t *testing.T) {
	c, err := Classify(Entry{
		Spec:      types.NoisySticky(2, 2),
		Inits:     []types.State{types.StickyUnset},
		Consensus: "inf",
		HM:        "inf",
	}, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Theorem5, "h_m >= 2") {
		t.Errorf("noisy-sticky conclusion: %q", c.Theorem5)
	}
	if c.Pair != nil {
		t.Error("nondeterministic type got a Section 5.2 pair")
	}
}
