package waitfree_test

import (
	"strings"
	"testing"

	"waitfree"
)

// The tests in this file exercise the public facade exactly as a
// downstream user would; deep behavior is tested in the internal packages.

func TestFacadeEliminateRegisters(t *testing.T) {
	report, err := waitfree.EliminateRegisters(
		waitfree.TAS2Consensus(), waitfree.ExploreOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OutputReport.OK() {
		t.Fatal(report.OutputReport.Summary())
	}
	if !strings.Contains(report.Summary(), "ok=true") {
		t.Errorf("summary: %s", report.Summary())
	}
}

func TestFacadeCheckConsensus(t *testing.T) {
	good, err := waitfree.CheckConsensus(waitfree.CASConsensus(2), waitfree.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !good.OK() {
		t.Fatal(good.Summary())
	}
	bad, err := waitfree.CheckConsensus(waitfree.NaiveRegisterConsensus(), waitfree.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bad.OK() {
		t.Fatal("register-only protocol accepted")
	}
}

func TestFacadeCheckConsensusK(t *testing.T) {
	report, err := waitfree.CheckConsensusK(
		waitfree.MultiValuedConsensus(2, 3), 3, waitfree.ExploreOptions{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
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
	report, err := waitfree.ComputeValency(
		waitfree.TAS2Consensus(), []int{0, 1}, waitfree.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.InitialBivalent || len(report.Critical) == 0 {
		t.Fatalf("unexpected valency report: %+v", report)
	}
}

func TestFacadeZoo(t *testing.T) {
	cs, err := waitfree.ClassifyZoo()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) < 18 {
		t.Errorf("zoo size = %d", len(cs))
	}
}

// TestFacadeBoundedBit drives the Section 4.3 bit through one Runner, one
// operation per run, threading the reader's and writer's memories.
func TestFacadeBoundedBit(t *testing.T) {
	r, err := waitfree.NewRunner(waitfree.OneUseBitArray(4, 3, 1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mems []any
	step := func(p int, inv waitfree.Invocation) waitfree.Response {
		t.Helper()
		scripts := make([][]waitfree.Invocation, 2)
		scripts[p] = []waitfree.Invocation{inv}
		out, err := r.Run(scripts, mems)
		if err != nil {
			t.Fatal(err)
		}
		mems = out.Mems
		return out.Responses[p][0]
	}
	if v := step(0, waitfree.Read); v != waitfree.ValOf(1) {
		t.Fatalf("read = %v", v)
	}
	step(1, waitfree.Write(0))
	if v := step(0, waitfree.Read); v != waitfree.ValOf(0) {
		t.Fatalf("read after write = %v", v)
	}
}

func TestFacadeUniversal(t *testing.T) {
	faa1, faa0 := waitfree.Inv("faa", 1), waitfree.Inv("faa", 0)
	im, err := waitfree.UniversalImplementation(waitfree.NewFetchAdd(2), 0, 2, 16,
		[]waitfree.Invocation{faa1, faa0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := waitfree.NewRunner(im, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run([][]waitfree.Invocation{{faa1}, nil}, nil)
	if err != nil || first.Responses[0][0] != waitfree.ValOf(0) {
		t.Fatalf("faa = %v, %v", first.Responses, err)
	}
	second, err := r.Run([][]waitfree.Invocation{nil, {faa0}}, first.Mems)
	if err != nil || second.Responses[1][0] != waitfree.ValOf(1) {
		t.Fatalf("faa(0) = %v, %v", second.Responses, err)
	}
}

func TestFacadeExportDot(t *testing.T) {
	scripts := [][]waitfree.Invocation{
		{waitfree.Propose(0)}, {waitfree.Propose(1)},
	}
	dot, err := waitfree.ExportDot(waitfree.CASConsensus(2), scripts, waitfree.ExploreOptions{}, 100)
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
	report, err := waitfree.EliminateRegistersVia53(
		waitfree.NoisySticky2RConsensus(), waitfree.NoisySticky2Consensus(), waitfree.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OutputReport.OK() {
		t.Fatal(report.OutputReport.Summary())
	}
}

func TestFacadeFetchCons(t *testing.T) {
	report, err := waitfree.CheckConsensus(waitfree.FetchConsConsensus(3), waitfree.ExploreOptions{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() || report.Depth != 3 {
		t.Fatal(report.Summary())
	}
}

func TestFacadeSynthesis(t *testing.T) {
	objects := []waitfree.SynthObject{{Name: "cas", Spec: waitfree.NewCompareSwap(2, 3), Init: 2}}
	st, _, err := waitfree.SynthesizeProtocol(objects, waitfree.SynthOptions{Depth: 1, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	im := waitfree.StrategyImplementation("t", objects, st, waitfree.SynthOptions{Symmetric: true})
	report, err := waitfree.CheckConsensus(im, waitfree.ExploreOptions{})
	if err != nil || !report.OK() {
		t.Fatalf("%v %v", err, report)
	}
}
