package consensus

import (
	"context"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// TestAllTwoProcessProtocolsCorrect model-checks every register-using
// 2-process protocol over all proposal vectors, interleavings, and
// nondeterministic resolutions.
func TestAllTwoProcessProtocolsCorrect(t *testing.T) {
	for _, im := range RegisterUsing() {
		im := im
		t.Run(im.Name, func(t *testing.T) {
			report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK() {
				t.Fatalf("%s\n%v", report.Summary(), report.Violation)
			}
			if len(report.Decisions) != 2 {
				t.Errorf("decisions = %v, want both 0 and 1 reachable", report.Decisions)
			}
		})
	}
}

func TestWeakLeader2CorrectUnderAllAdversaries(t *testing.T) {
	report, err := explore.ConsensusKContext(context.Background(), WeakLeader2(), 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("%s\n%v", report.Summary(), report.Violation)
	}
}

func TestCASConsensusScales(t *testing.T) {
	for _, procs := range []int{2, 3, 4} {
		report, err := explore.ConsensusKContext(context.Background(), CAS(procs), 2, explore.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("procs=%d: %s\n%v", procs, report.Summary(), report.Violation)
		}
		if report.Depth != procs {
			t.Errorf("procs=%d: D = %d, want %d", procs, report.Depth, procs)
		}
	}
}

func TestStickyConsensusScales(t *testing.T) {
	for _, procs := range []int{2, 3} {
		report, err := explore.ConsensusKContext(context.Background(), Sticky(procs), 2, explore.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("procs=%d: %s\n%v", procs, report.Summary(), report.Violation)
		}
		// stick + read per process.
		if report.Depth != 2*procs {
			t.Errorf("procs=%d: D = %d, want %d", procs, report.Depth, 2*procs)
		}
	}
}

func TestNaiveRegisterProtocolFails(t *testing.T) {
	report, err := explore.ConsensusKContext(context.Background(), NaiveRegister2(), 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("register-only protocol reported correct; registers cannot solve 2-consensus")
	}
	if report.Agreement {
		t.Error("expected an agreement violation")
	}
	if report.Violation == nil || len(report.Violation.Schedule) == 0 {
		t.Error("expected a counterexample schedule")
	}
}

// TestProtocolsValidateStructurally checks Validate on every protocol.
func TestProtocolsValidateStructurally(t *testing.T) {
	all := append(RegisterUsing(), WeakLeader2(), CAS(3), Sticky(3), NaiveRegister2())
	for _, im := range all {
		if err := im.Validate(); err != nil {
			t.Errorf("%s: %v", im.Name, err)
		}
	}
}

// TestElectionObjectAccessBounds verifies the Section 4.2 access bounds of
// every register-using protocol: each SRSW prefer bit is written at most
// once and read at most once, and the election object is touched at most
// once per process.
func TestElectionObjectAccessBounds(t *testing.T) {
	for _, im := range RegisterUsing() {
		im := im
		t.Run(im.Name, func(t *testing.T) {
			report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := report.MaxAccess[0]; got != 2 {
				t.Errorf("election object bound = %d, want 2", got)
			}
			for obj := 1; obj <= 2; obj++ {
				if got := report.OpAccess[obj][types.OpWrite]; got != 1 {
					t.Errorf("obj%d write bound = %d, want 1", obj, got)
				}
				if got := report.OpAccess[obj][types.OpRead]; got != 1 {
					t.Errorf("obj%d read bound = %d, want 1", obj, got)
				}
			}
		})
	}
}

// TestSoloDecidesOwnValue checks the validity corner solo: a process
// running alone must decide its own proposal.
func TestSoloDecidesOwnValue(t *testing.T) {
	for _, im := range append(RegisterUsing(), CAS(2), Sticky(2)) {
		for v := 0; v <= 1; v++ {
			states := im.InitialStates()
			res, err := program.Solo(im, states, 0, types.Propose(v), nil, 100)
			if err != nil {
				t.Fatalf("%s: %v", im.Name, err)
			}
			if res.Resp != types.ValOf(v) {
				t.Errorf("%s: solo propose(%d) decided %v", im.Name, v, res.Resp)
			}
		}
	}
}

func TestAugQueueConsensusScales(t *testing.T) {
	for _, procs := range []int{2, 3} {
		report, err := explore.ConsensusKContext(context.Background(), AugQueue(procs), 2, explore.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("procs=%d: %s\n%v", procs, report.Summary(), report.Violation)
		}
		// enq + peek per process.
		if report.Depth != 2*procs {
			t.Errorf("procs=%d: D = %d, want %d", procs, report.Depth, 2*procs)
		}
	}
}

func TestFetchConsConsensusScales(t *testing.T) {
	for _, procs := range []int{2, 3, 4} {
		report, err := explore.ConsensusKContext(context.Background(), FetchCons(procs), 2, explore.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("procs=%d: %s\n%v", procs, report.Summary(), report.Violation)
		}
		// A single access per process.
		if report.Depth != procs {
			t.Errorf("procs=%d: D = %d, want %d", procs, report.Depth, procs)
		}
	}
}

func TestNoisyStickyConsensus(t *testing.T) {
	// The register-free substrate verifies under every adversary
	// resolution of the unstuck reads.
	report, err := explore.ConsensusKContext(context.Background(), NoisySticky2(), 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("%s\n%v", report.Summary(), report.Violation)
	}
	// And so does the register-using variant.
	report, err = explore.ConsensusKContext(context.Background(), NoisySticky2R(), 2, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("%s\n%v", report.Summary(), report.Violation)
	}
}
