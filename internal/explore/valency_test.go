package explore

import (
	"strings"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/types"
)

func TestValencyTASConsensus(t *testing.T) {
	report, err := Valency(tasConsensusImpl(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !report.InitialBivalent {
		t.Fatal("mixed proposals must leave the initial configuration bivalent")
	}
	if got := ValencySet(report.InitialValency); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("initial valency = %v, want [0 1]", got)
	}
	if len(report.Critical) == 0 {
		t.Fatal("a correct protocol from a bivalent start must have critical configurations")
	}
	// Herlihy's argument: at every critical configuration, all pending
	// accesses target the SAME object, and it is the test-and-set object
	// (index 0), never one of the registers.
	for _, cc := range report.Critical {
		if !cc.SameObject {
			t.Errorf("critical configuration with pending steps on different objects: %+v", cc)
		}
		if cc.Obj != 0 {
			t.Errorf("critical configuration arbitrated by object %d, want the tas (0)", cc.Obj)
		}
		for _, ps := range cc.Pending {
			if ps.Inv.Op != types.OpTAS {
				t.Errorf("pending step %v is not a tas", ps)
			}
		}
	}
	if len(report.CriticalObjects) != 1 || report.CriticalObjects[0] != 0 {
		t.Errorf("critical objects = %v, want [0]", report.CriticalObjects)
	}
	if report.Bivalent == 0 || report.Univalent == 0 {
		t.Errorf("degenerate counts: bivalent=%d univalent=%d", report.Bivalent, report.Univalent)
	}
}

func TestValencySameProposalsUnivalent(t *testing.T) {
	report, err := Valency(tasConsensusImpl(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.InitialBivalent {
		t.Fatal("identical proposals must be univalent from the start (validity)")
	}
	if got := ValencySet(report.InitialValency); len(got) != 1 || got[0] != 1 {
		t.Fatalf("initial valency = %v, want [1]", got)
	}
	if len(report.Critical) != 0 {
		t.Errorf("univalent tree has %d critical configurations", len(report.Critical))
	}
}

func TestValencyCASConsensus(t *testing.T) {
	report, err := Valency(casConsensusImpl(3), []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !report.InitialBivalent {
		t.Fatal("mixed proposals bivalent")
	}
	for _, cc := range report.Critical {
		if !cc.SameObject || cc.Obj != 0 {
			t.Errorf("critical configuration not arbitrated by the cas object: %+v", cc)
		}
	}
}

// TestValencyRefusesDisagreement pins that Valency judges its leaves by
// the consensus leaf rule. NaiveRegister2 breaks agreement from proposals
// [1 0], the tree of the explorer's counterexample, so its valency
// analysis is an error, not a valency structure in which a register
// arbitrates.
func TestValencyRefusesDisagreement(t *testing.T) {
	report, err := Valency(consensus.NaiveRegister2(), []int{1, 0})
	if err == nil {
		t.Fatalf("a protocol that breaks agreement was analyzed: %+v", report)
	}
	if !strings.Contains(err.Error(), "breaks agreement") {
		t.Errorf("err = %v, want an agreement failure", err)
	}
}

func TestValencyRejectsBadShape(t *testing.T) {
	if _, err := Valency(tasConsensusImpl(), []int{0}); err == nil {
		t.Error("proposal count mismatch accepted")
	}
}

func TestValencySet(t *testing.T) {
	if got := ValencySet(0b101); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ValencySet(0b101) = %v", got)
	}
	if got := ValencySet(0); len(got) != 0 {
		t.Errorf("ValencySet(0) = %v", got)
	}
}
