package waitfree_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"waitfree"
)

// TestCheckConsensus covers the consensus pipeline of the unified API on a
// correct and an incorrect input, plus JSON round-trippability of the
// report union.
func TestCheckConsensus(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.TAS2Consensus(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != waitfree.KindConsensus || !rep.OK() || rep.Consensus == nil {
		t.Fatalf("bad report: %+v", rep)
	}
	if rep.Elapsed <= 0 {
		t.Error("report has no elapsed time")
	}
	assertJSON(t, rep, `"kind": "consensus"`, `"agreement": true`)

	bad, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.NaiveRegisterConsensus(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.OK() || bad.Consensus.Violation == nil {
		t.Fatalf("naive protocol verified: %+v", bad.Consensus)
	}
	assertJSON(t, bad, `"violation"`, `"kind": "leaf-reject"`)
}

// TestCheckBound covers the Section 4.2 bound pipeline: same counters as
// the consensus check, but proposal values drawn from the target type.
func TestCheckBound(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindBound,
		Implementation: waitfree.Queue2Consensus(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Consensus.Depth <= 0 {
		t.Fatalf("bad bound report: %+v", rep.Consensus)
	}
	assertJSON(t, rep, `"kind": "bound"`, `"depth"`)
}

// TestCheckElimination covers both elimination routes: the Section 5.2
// witness route and the Section 5.3 substrate route.
func TestCheckElimination(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.TAS2Consensus(),
	})
	if err != nil {
		t.Fatal(err)
	}
	e := rep.Elimination
	if !rep.OK() || e.RegistersEliminated == 0 || e.OutputName == "" {
		t.Fatalf("bad elimination report: %+v", e)
	}
	assertJSON(t, rep, `"kind": "elimination"`, `"registers_eliminated"`)

	via53, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.NoisySticky2RConsensus(),
		Substrate:      waitfree.NoisySticky2Consensus(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !via53.OK() || via53.Elimination.Pair != nil {
		t.Fatalf("bad 5.3 report: %+v", via53.Elimination)
	}
}

// TestCheckClassification covers the zoo pipeline.
func TestCheckClassification(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind: waitfree.KindClassification,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classifications) == 0 {
		t.Fatal("empty classification report")
	}
	// The zoo holds unbounded types (inc-only) whose triviality searches
	// truncate: they classify as inconclusive, and OK() refuses to bless
	// the report — a bounded claim is not a verdict.
	inconclusive := 0
	for _, c := range rep.Classifications {
		if c.Inconclusive {
			inconclusive++
		}
	}
	if inconclusive == 0 {
		t.Error("no zoo entry marked inconclusive; expected the unbounded types to be")
	}
	if rep.OK() {
		t.Error("OK() = true on a report with inconclusive entries")
	}
	if !strings.Contains(rep.String(), "test-and-set") {
		t.Errorf("String() missing zoo entries:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "inconclusive") {
		t.Errorf("String() does not surface inconclusive entries:\n%s", rep.String())
	}
	assertJSON(t, rep, `"kind": "classification"`, `"theorem5"`)
}

// TestCheckSynthesis covers the synthesis pipeline's three verdicts:
// found (with independent re-verification), impossible, and unknown.
func TestCheckSynthesis(t *testing.T) {
	found, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind: waitfree.KindSynthesis,
		Objects: []waitfree.SynthObject{
			{Name: "cas", Spec: waitfree.NewCompareSwap(2, 3), Init: 2},
		},
		Synthesis: waitfree.SynthOptions{Depth: 1, Symmetric: true, Budget: 5e7},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := found.Synthesis
	if !s.Found() || s.Reverification == nil || !s.Reverification.OK() {
		t.Fatalf("bad synthesis report: %+v", s)
	}
	assertJSON(t, found, `"verdict": "found"`, `"reverification"`)

	// The h_1 separation: test-and-set alone, symmetric, depth 3 — a fast
	// exhaustive refutation (the loser can never learn the winner's value).
	impossible, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind: waitfree.KindSynthesis,
		Objects: []waitfree.SynthObject{
			{Name: "tas", Spec: waitfree.NewTestAndSet(2), Init: 0},
		},
		Synthesis: waitfree.SynthOptions{Depth: 3, Symmetric: true, Budget: 5e7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if impossible.Synthesis.Verdict != "impossible" || !impossible.OK() {
		t.Fatalf("registers synthesized consensus: %+v", impossible.Synthesis)
	}

	unknown, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind: waitfree.KindSynthesis,
		Objects: []waitfree.SynthObject{
			{Name: "tas", Spec: waitfree.NewTestAndSet(2), Init: 0},
			{Name: "r0", Spec: waitfree.NewBit(2), Init: 0},
			{Name: "r1", Spec: waitfree.NewBit(2), Init: 0},
		},
		Synthesis: waitfree.SynthOptions{Depth: 3, Budget: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if unknown.Synthesis.Verdict != "unknown" || unknown.OK() {
		t.Fatalf("budget exhaustion not reported: %+v", unknown.Synthesis)
	}
}

// TestCheckBadRequest pins the ErrBadRequest sentinel on every malformed
// request shape.
func TestCheckBadRequest(t *testing.T) {
	for _, req := range []waitfree.Request{
		{Kind: "nonsense"},
		{Kind: waitfree.KindConsensus},   // missing Implementation
		{Kind: waitfree.KindBound},       // missing Implementation
		{Kind: waitfree.KindElimination}, // missing Implementation
		{Kind: waitfree.KindSynthesis},   // missing Objects
	} {
		if _, err := waitfree.Check(context.Background(), req); !errors.Is(err, waitfree.ErrBadRequest) {
			t.Errorf("%+v: err = %v, want ErrBadRequest", req, err)
		}
	}
	// Bad explore options surface their own sentinel.
	_, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.TAS2Consensus(),
		Explore:        waitfree.ExploreOptions{MaxDepth: -1},
	})
	if !errors.Is(err, waitfree.ErrBadExploreOptions) {
		t.Errorf("err = %v, want ErrBadExploreOptions", err)
	}
}

// TestCheckCancellation checks that cancellation propagates through the
// unified API for each context-aware pipeline.
func TestCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []waitfree.Request{
		{Kind: waitfree.KindConsensus, Implementation: waitfree.CASRegister3Consensus()},
		{Kind: waitfree.KindBound, Implementation: waitfree.TAS2Consensus()},
		{Kind: waitfree.KindElimination, Implementation: waitfree.TAS2Consensus()},
		{Kind: waitfree.KindClassification},
	}
	for _, req := range reqs {
		if _, err := waitfree.Check(ctx, req); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", req.Kind, err)
		}
	}
	// Deadline expiry mid-run degrades KindConsensus to a partial-coverage
	// report (nil error) with the resumable checkpoint lifted to the top
	// level — the durable-runs contract, not the Ctrl-C contract.
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer dcancel()
	rep, err := waitfree.Check(dctx, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.CASRegister3Consensus(),
	})
	if err != nil {
		t.Fatalf("deadline: err = %v, want nil (partial report)", err)
	}
	if rep.Consensus == nil || !rep.Consensus.Partial || rep.Consensus.Coverage == nil {
		t.Fatalf("deadline: report not partial: %+v", rep.Consensus)
	}
	if rep.OK() {
		t.Error("partial report claims OK")
	}
	if rep.Checkpoint == nil {
		t.Error("partial report's checkpoint was not lifted to the Report")
	}
}

// TestCheckPartialBudget drives the soft node budget through the unified
// API: KindConsensus degrades to a resumable partial report, while
// KindBound — whose bounds only exist for fully covered inputs — reports
// the stop as inconclusive, not as a verification failure.
func TestCheckPartialBudget(t *testing.T) {
	req := waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.CASRegister3Consensus(),
		Explore:        waitfree.ExploreOptions{Memoize: true, Parallelism: 1, MaxNodes: 500},
	}
	rep, err := waitfree.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("consensus: err = %v, want nil", err)
	}
	if !rep.Consensus.Partial || rep.Checkpoint == nil || rep.OK() {
		t.Fatalf("consensus: want partial report with checkpoint, got %+v", rep.Consensus)
	}

	// Resume the same request from the partial checkpoint, without the
	// budget: the completed report must verify.
	req.Explore.MaxNodes = 0
	req.Explore.ResumeFrom = rep.Checkpoint
	full, err := waitfree.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !full.OK() || full.Checkpoint != nil || full.Consensus.Partial {
		t.Fatalf("resume: want complete verified report, got %s", full.Consensus.Summary())
	}

	bound := waitfree.Request{
		Kind:           waitfree.KindBound,
		Implementation: waitfree.CASRegister3Consensus(),
		Explore:        waitfree.ExploreOptions{Memoize: true, Parallelism: 1, MaxNodes: 500},
	}
	brep, err := waitfree.Check(context.Background(), bound)
	if !errors.Is(err, waitfree.ErrInconclusive) {
		t.Fatalf("bound: err = %v, want ErrInconclusive", err)
	}
	if errors.Is(err, waitfree.ErrNotWaitFree) {
		t.Error("bound: partial coverage misreported as a failed verification")
	}
	if brep == nil || brep.Checkpoint == nil {
		t.Error("bound: inconclusive stop lost the resumable checkpoint")
	}
}

// assertJSON marshals v and checks the rendered document contains every
// want fragment — the stability contract of the -json CLI output.
func assertJSON(t *testing.T, v any, wants ...string) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, w := range wants {
		if !strings.Contains(string(data), w) {
			t.Errorf("JSON missing %q:\n%s", w, data)
		}
	}
}
