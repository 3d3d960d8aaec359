package waitfree_test

import (
	"context"
	"strings"
	"testing"

	"waitfree"
	"waitfree/internal/program"
)

// The tests in this file exercise the public facade exactly as a
// downstream user would; deep behavior is tested in the internal packages.

// check runs req through waitfree.Check, failing the test on an error.
func check(t *testing.T, req waitfree.Request) *waitfree.Report {
	t.Helper()
	rep, err := waitfree.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFacadeEliminateRegisters(t *testing.T) {
	report := check(t, waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.TAS2Consensus(),
		MaxK:           3,
	}).Elimination
	if !report.OutputReport.OK() {
		t.Fatal(report.OutputReport.Summary())
	}
	if !strings.Contains(report.Summary(), "ok=true") {
		t.Errorf("summary: %s", report.Summary())
	}
}

func TestFacadeCheckConsensus(t *testing.T) {
	good := check(t, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.CASConsensus(2),
	}).Consensus
	if !good.OK() {
		t.Fatal(good.Summary())
	}
	bad := check(t, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.NaiveRegisterConsensus(),
	}).Consensus
	if bad.OK() {
		t.Fatal("register-only protocol accepted")
	}
}

func TestFacadeCheckConsensusK(t *testing.T) {
	report := check(t, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.MultiValuedConsensus(2, 3),
		Values:         3,
		Explore:        waitfree.ExploreOptions{Memoize: true},
	}).Consensus
	if !report.OK() {
		t.Fatal(report.Summary())
	}
	if report.Roots != 9 {
		t.Errorf("roots = %d, want 9", report.Roots)
	}
}

func TestFacadeCustomType(t *testing.T) {
	flag := &waitfree.Spec{
		Name:          "flag",
		Ports:         2,
		Oblivious:     true,
		Deterministic: true,
		Alphabet:      []waitfree.Invocation{waitfree.Inv("raise"), waitfree.Inv("check")},
		Step: func(q waitfree.State, _ int, inv waitfree.Invocation) []waitfree.Transition {
			b, ok := q.(int)
			if !ok {
				return nil
			}
			switch inv.Op {
			case "raise":
				return []waitfree.Transition{{Next: 1, Resp: waitfree.OK}}
			case "check":
				return []waitfree.Transition{{Next: b, Resp: waitfree.ValOf(b)}}
			}
			return nil
		},
	}
	trivial, err := waitfree.IsTrivial(flag, []waitfree.State{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if trivial {
		t.Fatal("flag type misclassified as trivial")
	}
	im, pair, err := waitfree.OneUseBitFromType(flag, []waitfree.State{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pair.K() != 1 {
		t.Errorf("witness k = %d, want 1", pair.K())
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeValency(t *testing.T) {
	report, err := waitfree.ComputeValency(waitfree.TAS2Consensus(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !report.InitialBivalent || len(report.Critical) == 0 {
		t.Fatalf("unexpected valency report: %+v", report)
	}
}

func TestFacadeZoo(t *testing.T) {
	cs := check(t, waitfree.Request{Kind: waitfree.KindClassification}).Classifications
	if len(cs) < 18 {
		t.Errorf("zoo size = %d", len(cs))
	}
}

// soloStep runs one operation of process p alone on states, threading p's
// persistent memory through mems.
func soloStep(t *testing.T, im *waitfree.Implementation, states []waitfree.State, mems []any, p int, inv waitfree.Invocation) waitfree.Response {
	t.Helper()
	res, err := program.Solo(im, states, p, inv, mems[p], 1000)
	if err != nil {
		t.Fatal(err)
	}
	mems[p] = res.Mem
	return res.Resp
}

// TestFacadeBoundedBit drives the Section 4.3 bit one operation at a time,
// threading the reader's and writer's memories, then walks a reader racing
// a writer.
func TestFacadeBoundedBit(t *testing.T) {
	im := waitfree.OneUseBitArray(4, 3, 1)
	states, mems := im.InitialStates(), make([]any, 2)
	if v := soloStep(t, im, states, mems, 0, waitfree.Read); v != waitfree.ValOf(1) {
		t.Fatalf("read = %v", v)
	}
	soloStep(t, im, states, mems, 1, waitfree.Write(0))
	if v := soloStep(t, im, states, mems, 0, waitfree.Read); v != waitfree.ValOf(0) {
		t.Fatalf("read after write = %v", v)
	}
	scripts := [][]waitfree.Invocation{{waitfree.Read, waitfree.Read}, {waitfree.Write(0)}}
	w, err := waitfree.Walk(im, scripts, waitfree.WalkSchedule{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Responses[0]) != 2 || len(w.History) != 3 {
		t.Fatalf("walk: responses %v, history %v", w.Responses, w.History)
	}
}

func TestFacadeUniversal(t *testing.T) {
	faa1, faa0 := waitfree.Inv("faa", 1), waitfree.Inv("faa", 0)
	im, err := waitfree.UniversalImplementation(waitfree.NewFetchAdd(2), 0, 2, 16,
		[]waitfree.Invocation{faa1, faa0})
	if err != nil {
		t.Fatal(err)
	}
	states, mems := im.InitialStates(), make([]any, 2)
	if v := soloStep(t, im, states, mems, 0, faa1); v != waitfree.ValOf(0) {
		t.Fatalf("faa = %v", v)
	}
	if v := soloStep(t, im, states, mems, 1, faa0); v != waitfree.ValOf(1) {
		t.Fatalf("faa(0) = %v", v)
	}
	w, err := waitfree.Walk(im, [][]waitfree.Invocation{{faa1, faa1}, {faa1}}, waitfree.WalkSchedule{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Responses[0]) + len(w.Responses[1]); got != 3 {
		t.Fatalf("walk decided %d operations, want 3", got)
	}
}

func TestFacadeExportDot(t *testing.T) {
	scripts := [][]waitfree.Invocation{
		{waitfree.Propose(0)}, {waitfree.Propose(1)},
	}
	dot, err := waitfree.ExportDot(waitfree.CASConsensus(2), scripts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") {
		t.Errorf("dot output: %q", dot)
	}
}

func TestFacadeAuditSpec(t *testing.T) {
	if err := waitfree.AuditSpec(waitfree.NewTestAndSet(2), 0, 32); err != nil {
		t.Fatal(err)
	}
	lying := waitfree.NewOneUseBit()
	lying.Deterministic = true
	if err := waitfree.AuditSpec(lying, "unset", 32); err == nil {
		t.Fatal("lying spec passed the audit")
	}
}

func TestFacadeVia53(t *testing.T) {
	report := check(t, waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.NoisySticky2RConsensus(),
		Substrate:      waitfree.NoisySticky2Consensus(),
	}).Elimination
	if !report.OutputReport.OK() {
		t.Fatal(report.OutputReport.Summary())
	}
}

func TestFacadeFetchCons(t *testing.T) {
	report := check(t, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.FetchConsConsensus(3),
		Explore:        waitfree.ExploreOptions{Memoize: true},
	}).Consensus
	if !report.OK() || report.Depth != 3 {
		t.Fatal(report.Summary())
	}
}

func TestFacadeSynthesis(t *testing.T) {
	objects := []waitfree.SynthObject{{Name: "cas", Spec: waitfree.NewCompareSwap(2, 3), Init: 2}}
	syn := check(t, waitfree.Request{
		Kind:      waitfree.KindSynthesis,
		Objects:   objects,
		Synthesis: waitfree.SynthOptions{Depth: 1, Symmetric: true},
	}).Synthesis
	if !syn.Found() {
		t.Fatalf("verdict %s", syn.Verdict)
	}
	im := waitfree.StrategyImplementation("t", objects, syn.StrategyMap, waitfree.SynthOptions{Symmetric: true})
	report := check(t, waitfree.Request{Kind: waitfree.KindConsensus, Implementation: im}).Consensus
	if !report.OK() {
		t.Fatal(report.Summary())
	}
}
