package synth

import (
	"context"
	"errors"
	"strings"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/types"
)

func casObject() Object {
	return Object{Name: "cas", Spec: types.CompareSwap(2, 3), Init: 2}
}

func tasObject() Object {
	return Object{Name: "tas", Spec: types.TestAndSet(2), Init: 0}
}

func stickyObject() Object {
	return Object{Name: "sticky", Spec: types.StickyCell(2, 2), Init: types.StickyUnset}
}

// reverify re-checks a synthesized strategy with the independent explorer.
func reverify(t *testing.T, objects []Object, st Strategy, symmetric bool) {
	t.Helper()
	im := Implementation("synthesized", objects, st, Options{Symmetric: symmetric})
	report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("synthesized protocol fails independent verification: %s\nstrategy:\n%s",
			report.Summary(), st.Format(objects))
	}
}

func TestSynthesizesCASProtocol(t *testing.T) {
	objects := []Object{casObject()}
	st, stats, err := SearchContext(context.Background(), objects, Options{Depth: 1, Symmetric: true})
	if err != nil {
		t.Fatalf("err = %v (stats %+v)", err, stats)
	}
	reverify(t, objects, st, true)
}

func TestSynthesizesStickyProtocol(t *testing.T) {
	objects := []Object{stickyObject()}
	st, _, err := SearchContext(context.Background(), objects, Options{Depth: 2, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	reverify(t, objects, st, true)
}

// TestTASAloneImpossible is the h_1 separation: a single test-and-set
// object with NO registers admits no 2-process consensus protocol, even
// asymmetric, within 3 accesses per process — the loser can never learn
// the winner's proposal.
func TestTASAloneImpossible(t *testing.T) {
	objects := []Object{tasObject()}
	for _, symmetric := range []bool{true, false} {
		_, stats, err := SearchContext(context.Background(), objects, Options{Depth: 3, Symmetric: symmetric})
		if !errors.Is(err, ErrNoProtocol) {
			t.Fatalf("symmetric=%v: err = %v (stats %+v), want ErrNoProtocol", symmetric, err, stats)
		}
	}
}

// TestAugmentedQueueProtocolFound: one augmented queue suffices, and
// synthesis discovers the enqueue-then-peek protocol on its own.
func TestAugmentedQueueProtocolFound(t *testing.T) {
	objects := []Object{{Name: "aq", Spec: types.AugmentedQueue(2, 2, 2), Init: types.QueueState()}}
	st, _, err := SearchContext(context.Background(), objects, Options{Depth: 2, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	reverify(t, objects, st, true)
}

// TestRegisterAloneImpossible: a single binary register admits no bounded
// protocol — the FLP-side fact cited by Theorem 5's trivial case.
func TestRegisterAloneImpossible(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exhaustive search")
	}
	objects := []Object{{Name: "r", Spec: types.Register(2, 2), Init: 0}}
	_, _, err := SearchContext(context.Background(), objects, Options{Depth: 2, Symmetric: false, Budget: 1e9})
	if !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("err = %v, want ErrNoProtocol", err)
	}
}

// TestSRSWBitsAloneImpossible: the paper's own register model — a pair of
// SRSW bits — admits no bounded protocol either.
func TestSRSWBitsAloneImpossible(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exhaustive search")
	}
	objects := []Object{
		{Name: "r0", Spec: types.SRSWBit(), Init: 0, PortOf: []int{2, 1}},
		{Name: "r1", Spec: types.SRSWBit(), Init: 0, PortOf: []int{1, 2}},
	}
	_, _, err := SearchContext(context.Background(), objects, Options{Depth: 2, Symmetric: false, Budget: 1e9})
	if !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("err = %v, want ErrNoProtocol", err)
	}
}

// TestRelabelRoleSymmetry checks the Relabel machinery: a symmetric
// strategy over virtual objects {own, other} resolves to different
// physical objects per process.
func TestRelabelRoleSymmetry(t *testing.T) {
	objects := []Object{
		{Name: "s0", Spec: types.StickyCell(2, 2), Init: types.StickyUnset},
		{Name: "s1", Spec: types.StickyCell(2, 2), Init: types.StickyUnset},
	}
	opts := Options{
		Depth:     2,
		Symmetric: true,
		// Virtual object 0 = "my cell", 1 = "the other's cell".
		Relabel: &[2][]int{{0, 1}, {1, 0}},
	}
	st, _, err := SearchContext(context.Background(), objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	im := Implementation("role-symmetric", objects, st, opts)
	report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("role-symmetric protocol failed: %s\n%s", report.Summary(), st.Format(objects))
	}
}

// TestOneUseBitsAloneImpossible: one-use bits sit at level 1, so a few of
// them cannot solve 2-process consensus.
func TestOneUseBitsAloneImpossible(t *testing.T) {
	objects := []Object{
		{Name: "b0", Spec: types.OneUseBit(), Init: types.OneUseUnset},
		{Name: "b1", Spec: types.OneUseBit(), Init: types.OneUseUnset},
	}
	_, _, err := SearchContext(context.Background(), objects, Options{Depth: 2, Symmetric: true, Budget: 5e7})
	if !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("err = %v, want ErrNoProtocol", err)
	}
}

func TestBudgetSurfaces(t *testing.T) {
	objects := []Object{
		tasObject(),
		{Name: "r0", Spec: types.Bit(2), Init: 0},
		{Name: "r1", Spec: types.Bit(2), Init: 0},
	}
	_, _, err := SearchContext(context.Background(), objects, Options{Depth: 3, Budget: 10})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestSearchRejectsBadDepth(t *testing.T) {
	if _, _, err := SearchContext(context.Background(), nil, Options{}); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestStrategyFormat(t *testing.T) {
	objects := []Object{casObject()}
	st, _, err := SearchContext(context.Background(), objects, Options{Depth: 1, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	out := st.Format(objects)
	if !strings.Contains(out, "prop=0") || !strings.Contains(out, "decide") {
		t.Errorf("Format output:\n%s", out)
	}
}

func TestActionString(t *testing.T) {
	if got := (Action{Decide: true, Value: 1}).String(); got != "decide 1" {
		t.Errorf("decide String = %q", got)
	}
	if got := (Action{Obj: 2, Inv: types.TAS}).String(); got != "obj2.tas" {
		t.Errorf("invoke String = %q", got)
	}
}

// TestMixedWeakTypesImpossible is the robustness flavor of the paper's
// conclusion: combining objects of DIFFERENT level-1 deterministic types
// (a toggle and a latch-flag) still cannot reach level 2 — no bounded
// protocol exists over the mixed set.
func TestMixedWeakTypesImpossible(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search")
	}
	objects := []Object{
		{Name: "tg", Spec: types.Toggle(2), Init: 0},
		{Name: "lf", Spec: types.LatchFlag(), Init: types.LatchFlagInit(), PortOf: []int{1, 2}},
	}
	_, _, err := SearchContext(context.Background(), objects, Options{Depth: 2, Symmetric: true, Budget: 1e9})
	if !errors.Is(err, ErrNoProtocol) {
		t.Fatalf("err = %v, want ErrNoProtocol", err)
	}
}
