package waitfree_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"waitfree"
)

// oneCrash is the fault model of the paper's crash-stop setting with a
// single faulty process.
var oneCrash = waitfree.FaultModel{MaxCrashes: 1}

// TestFaultExplorationPinned is the acceptance pin of the fault engine:
// the queue-based protocol AND its Theorem 5 register-free output both
// verify under exhaustive <=1-crash exploration, through the unified
// Check API.
func TestFaultExplorationPinned(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.Queue2Consensus(),
		Explore:        waitfree.ExploreOptions{Memoize: true, Faults: oneCrash},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("elimination under faults failed: %s", rep)
	}
	out := rep.Elimination.OutputReport
	if out.Faults == nil || out.Faults.MaxCrashes != 1 {
		t.Fatalf("output report does not record the fault model: %+v", out.Faults)
	}
	if !out.WaitFree || !out.Agreement || !out.Validity {
		t.Fatalf("register-free output failed under crashes: %s", out.Summary())
	}
	// The access bounds are a crash-free property (crash edges cost no
	// low-level operations), so fault exploration must not inflate them.
	plainRep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: rep.Elimination.Output,
		Explore:        waitfree.ExploreOptions{Memoize: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := plainRep.Consensus
	if out.Depth != plain.Depth {
		t.Errorf("crash exploration changed the depth bound: %d vs %d", out.Depth, plain.Depth)
	}
	if !reflect.DeepEqual(out.MaxAccess, plain.MaxAccess) {
		t.Errorf("crash exploration changed access bounds: %v vs %v", out.MaxAccess, plain.MaxAccess)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want := `"max_crashes": 1`; !strings.Contains(string(blob), want) {
		t.Errorf("JSON report lacks %s", want)
	}
}

// cancelAfterFirstTree runs req with Parallelism 1 and cancels the
// context as soon as one proposal tree completes, returning the partial
// report carrying the checkpoint.
func cancelAfterFirstTree(t *testing.T, req waitfree.Request) *waitfree.Report {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req.Explore.Parallelism = 1
	req.Explore.ProgressInterval = time.Millisecond
	req.Explore.OnProgress = func(s waitfree.ExploreStats) {
		if s.TreesDone >= 1 {
			cancel()
		}
	}
	rep, err := waitfree.Check(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Checkpoint == nil {
		t.Fatalf("cancelled run returned no checkpoint: %+v", rep)
	}
	return rep
}

// TestCheckCheckpointResume is the facade-level resume contract: a
// cancelled Check returns a Report.Checkpoint which, fed back through
// Request.Explore.ResumeFrom (after a JSON round trip, as the CLIs do), completes
// to a report semantically identical to an uninterrupted run — for both
// KindConsensus and KindBound, with faults enabled.
func TestCheckCheckpointResume(t *testing.T) {
	for _, kind := range []waitfree.CheckKind{waitfree.KindConsensus, waitfree.KindBound} {
		req := waitfree.Request{
			Kind:           kind,
			Implementation: waitfree.CASRegister3Consensus(),
			Explore:        waitfree.ExploreOptions{Memoize: true, Faults: oneCrash},
		}
		partial := cancelAfterFirstTree(t, req)
		if done := int64(len(partial.Checkpoint.Trees)); done < 1 {
			t.Fatalf("%s: checkpoint records %d finished trees", kind, done)
		}

		// Round-trip through JSON, like the -checkpoint flag does.
		blob, err := json.Marshal(partial.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		restored := &waitfree.Checkpoint{}
		if err := json.Unmarshal(blob, restored); err != nil {
			t.Fatal(err)
		}

		resumed, err := waitfree.Check(context.Background(), waitfree.Request{
			Kind:           kind,
			Implementation: waitfree.CASRegister3Consensus(),
			Explore:        waitfree.ExploreOptions{Memoize: true, Faults: oneCrash, Parallelism: 2, ResumeFrom: restored},
		})
		if err != nil {
			t.Fatalf("%s resume: %v", kind, err)
		}
		full, err := waitfree.Check(context.Background(), waitfree.Request{
			Kind:           kind,
			Implementation: waitfree.CASRegister3Consensus(),
			Explore:        waitfree.ExploreOptions{Memoize: true, Faults: oneCrash},
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b := *resumed.Consensus, *full.Consensus
		a.Stats, b.Stats = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: resumed report differs from uninterrupted run:\n%+v\nvs\n%+v", kind, a, b)
		}
		if resumed.Checkpoint != nil || full.Checkpoint != nil {
			t.Errorf("%s: completed runs carry checkpoints", kind)
		}
	}
}

// TestCheckResumeFromRejected pins the Request validation:
// Explore.ResumeFrom only applies to the single-exploration kinds.
func TestCheckResumeFromRejected(t *testing.T) {
	_, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.TAS2Consensus(),
		Explore:        waitfree.ExploreOptions{ResumeFrom: &waitfree.Checkpoint{}},
	})
	if !errors.Is(err, waitfree.ErrBadRequest) {
		t.Errorf("err = %v, want ErrBadRequest", err)
	}
}

// oneRecovery is the crash-recovery fault model: a single crash event
// whose victim may restart once from its recovery section.
var oneRecovery = waitfree.FaultModel{
	MaxCrashes: 1, Mode: waitfree.CrashRecovery, MaxRecoveries: 1,
}

// TestCheckCrashRecovery is the facade-level acceptance pin of the
// crash-recovery mode: a correct election protocol verifies under a
// crash/recover budget, the naive register-only protocol is refuted with
// the decision-changed-after-recovery kind on a crash- and
// recover-annotated counterexample, and the full fault model (including
// max_recoveries) round-trips through the JSON report.
func TestCheckCrashRecovery(t *testing.T) {
	good, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.TAS2Consensus(),
		Explore:        waitfree.ExploreOptions{Memoize: true, Faults: oneRecovery},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !good.OK() {
		t.Fatalf("tas failed under crash-recovery: %s", good)
	}

	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.NaiveRegisterConsensus(),
		Explore:        waitfree.ExploreOptions{Memoize: true, Faults: oneRecovery},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Consensus.Violation
	if rep.OK() || v == nil {
		t.Fatalf("naive protocol verified under crash-recovery: %+v", rep.Consensus)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"decision-changed-after-recovery"`, `"max_recoveries": 1`,
		`"mode": "crash-recovery"`, `"crash": true`, `"recover": true`,
	} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("JSON report lacks %s", want)
		}
	}
}

// TestCheckFaultsOnBrokenProtocol checks that the facade surfaces fault
// exploration on an incorrect input: the report fails, and the recorded
// fault model round-trips through the JSON output.
func TestCheckFaultsOnBrokenProtocol(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.NaiveRegisterConsensus(),
		Explore:        waitfree.ExploreOptions{Memoize: true, Faults: oneCrash},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Consensus.Violation == nil {
		t.Fatalf("naive protocol verified under faults: %+v", rep.Consensus)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"faults"`, `"max_crashes": 1`, `"violation"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("JSON report lacks %s", want)
		}
	}
}
