package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/types"
	"waitfree/internal/universal"
)

// E8 reproduces the paper's Section 6 context: the separation of h_m from
// h_m^r requires nondeterminism (Theorem 5 makes it impossible for
// deterministic types). The WeakLeader type is a Jayanti-style witness:
// with registers, the two-access protocol solves consensus under every
// adversary resolution; without registers, the natural protocol is broken
// by an explicit adversary resolution that the explorer exhibits.
func E8(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Nondeterminism is necessary for the h_m / h_m^r gap (Section 6)",
		PaperClaim: "Jayanti's type separating h_m from h_m^r had to be nondeterministic " +
			"with h_m(T) = 1 and h_m^r(T) >= 2 (Theorem 5).",
		Expectation: "weak-leader + registers verifies over all adversary resolutions; the " +
			"register-free attempt fails with a concrete adversary schedule; objects of " +
			"the type alone carry only the adversary-controlled win/lose bit.",
		Columns: []string{"configuration", "roots", "nodes", "agreement", "outcome"},
	}
	withRegs, err := checkConsensus(ctx, consensus.WeakLeader2(), 2, explore.Options{})
	if err != nil {
		return nil, fmt.Errorf("E8 with registers: %w", err)
	}
	noRegs, err := checkConsensus(ctx, weakLeaderNoRegisters(), 2, explore.Options{})
	if err != nil {
		return nil, fmt.Errorf("E8 without registers: %w", err)
	}
	ok := withRegs.OK() && !noRegs.Agreement && noRegs.Violation != nil
	outcomeNo := "no counterexample found"
	if noRegs.Violation != nil {
		outcomeNo = fmt.Sprintf("adversary schedule of %d steps breaks agreement",
			len(noRegs.Violation.Schedule))
	}
	t.Rows = append(t.Rows, []string{
		"weak-leader + SRSW bits (two accesses each)",
		strconv.Itoa(withRegs.Roots), strconv.FormatInt(withRegs.Nodes, 10),
		yn(withRegs.Agreement), "correct under every adversary resolution",
	})
	t.Rows = append(t.Rows, []string{
		"weak-leader alone (best blind guess)",
		strconv.Itoa(noRegs.Roots), strconv.FormatInt(noRegs.Nodes, 10),
		yn(noRegs.Agreement), outcomeNo,
	})
	t.Verdict = verdict(ok,
		"registers strictly increase the type's consensus power — possible only because "+
			"the type is nondeterministic (Theorem 5)")
	return t, nil
}

// weakLeaderNoRegisters is the register-free attempt: win either access ->
// decide own value; lose both -> the winner's value is unknowable, so
// guess the other binary value.
func weakLeaderNoRegisters() *program.Implementation {
	type st struct {
		PC int
		V  int
	}
	machine := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return st{PC: 0, V: inv.A} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(st)
			won := resp.Label == types.LabelWin
			switch {
			case s.PC == 0:
				return program.InvokeAction(0, types.TAS), st{PC: 1, V: s.V}
			case won:
				return program.ReturnAction(types.ValOf(s.V), nil), s
			case s.PC == 1:
				return program.InvokeAction(0, types.TAS), st{PC: 2, V: s.V}
			default:
				return program.ReturnAction(types.ValOf(1-s.V), nil), s
			}
		},
	}
	return &program.Implementation{
		Name:   "weakleader-no-registers",
		Target: types.Consensus(2),
		Procs:  2,
		Objects: []program.ObjectDecl{
			{Name: "elect", Spec: types.WeakLeader(2), Init: 0, PortOf: program.AllPorts(2)},
		},
		Machines: []program.Machine{machine, machine},
	}
}

// E9 reproduces the context that gives hierarchy levels their meaning:
// Herlihy's universality of consensus. The universal construction turns
// consensus cells into a wait-free linearizable object of any
// deterministic type; measured here on a counter (exactness) and a queue
// (linearizability).
func E9(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Universality of consensus (Herlihy; Section 2.3 context)",
		PaperClaim: "If a type can implement wait-free consensus for n processes, it can " +
			"implement every type for n processes.",
		Expectation: "Counter hands out each value exactly once; queue histories linearize; " +
			"log positions stay within operations + helping slack.",
		Columns: []string{"object", "procs", "total ops", "check", "holds"},
	}
	allOK := true

	// Counter exactness: procs * each increments, all distinct, no gaps.
	const procs, each, counterSeeds = 4, 40, 5
	exact, err := e9Counter(ctx, procs, each, counterSeeds)
	if err != nil {
		return nil, err
	}
	allOK = allOK && exact
	t.Rows = append(t.Rows, []string{"fetch-and-add counter", strconv.Itoa(procs),
		fmt.Sprintf("%d seeded schedules x %d ops", counterSeeds, procs*each),
		"responses are exactly {0..N-1}, in real-time order", yn(exact)})

	// Queue linearizability across seeded schedules.
	const queueSeeds = 8
	queueOK, err := e9Queue(ctx, queueSeeds)
	if err != nil {
		return nil, err
	}
	allOK = allOK && queueOK
	t.Rows = append(t.Rows, []string{"FIFO queue", "3",
		fmt.Sprintf("%d seeded schedules x 18 ops", queueSeeds), "histories linearize against the queue type", yn(queueOK)})

	// Small instances, verified EXHAUSTIVELY by the explorer.
	for _, mc := range []struct {
		name     string
		target   *types.Spec
		init     types.State
		alphabet []types.Invocation
		scripts  [][]types.Invocation
	}{
		{"register (exhaustive)", types.Register(2, 2), 0,
			[]types.Invocation{types.Read, types.Write(0), types.Write(1)},
			[][]types.Invocation{{types.Write(1)}, {types.Read, types.Read}}},
		{"queue (exhaustive)", types.Queue(2, 2, 4), types.QueueState(),
			[]types.Invocation{types.Enq(1), types.Deq},
			[][]types.Invocation{{types.Enq(1)}, {types.Deq}}},
	} {
		ok, leaves, err := e9MachineCheck(ctx, mc.target, mc.init, mc.alphabet, mc.scripts)
		if err != nil {
			return nil, fmt.Errorf("E9 %s: %w", mc.name, err)
		}
		allOK = allOK && ok
		t.Rows = append(t.Rows, []string{mc.name, "2",
			fmt.Sprintf("%d interleavings", leaves), "every leaf history linearizes", yn(ok)})
	}

	t.Verdict = verdict(allOK,
		"consensus cells implement arbitrary deterministic types wait-free and "+
			"linearizably — the reason consensus numbers measure computational power")
	return t, nil
}

// e9MachineCheck runs the machine-form universal construction through the
// explorer, checking every leaf history against the target.
func e9MachineCheck(ctx context.Context, target *types.Spec, init types.State, alphabet []types.Invocation, scripts [][]types.Invocation) (bool, int64, error) {
	totalOps := 0
	for _, s := range scripts {
		totalOps += len(s)
	}
	im, err := universal.MachineImplementation(target, init, len(scripts), totalOps, alphabet)
	if err != nil {
		return false, 0, err
	}
	ok := true
	opts := explore.Options{
		RecordHistory: true,
		OnLeaf: func(l *explore.Leaf) error {
			if _, err := linearize.Check(target, init, l.History()); err != nil {
				ok = false
				return err
			}
			return nil
		},
	}
	res, err := explore.RunContext(ctx, im, scripts, opts)
	if err != nil {
		return false, 0, err
	}
	if res.Violation != nil {
		return false, res.Leaves, nil
	}
	return ok, res.Leaves, nil
}

// e9Counter walks procs processes of each fetch-and-add(1) operations
// under seeded schedules. A counter history linearizes iff its responses
// are exactly {0..N-1} and an operation that ends before another begins
// got the smaller value; the history is too long for linearize.Check, so
// the check is made directly. ctx is checked between walks.
func e9Counter(ctx context.Context, procs, each, seeds int) (bool, error) {
	faa := types.Inv(types.OpFAA, 1)
	im, err := universal.MachineImplementation(types.FetchAdd(procs), 0, procs, procs*each, []types.Invocation{faa})
	if err != nil {
		return false, err
	}
	scripts := make([][]types.Invocation, procs)
	for p := range scripts {
		for i := 0; i < each; i++ {
			scripts[p] = append(scripts[p], faa)
		}
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		w, err := explore.Walk(im, scripts, explore.Schedule{Seed: seed})
		if err != nil {
			return false, nil
		}
		h := w.History
		if len(h) != procs*each {
			return false, nil
		}
		sort.Slice(h, func(i, j int) bool { return h[i].Resp.Val < h[j].Resp.Val })
		for i, op := range h {
			if op.Resp.Val != i || (i > 0 && op.End < h[i-1].Begin) {
				return false, nil
			}
		}
	}
	return true, nil
}

// e9Queue walks three processes mixing enqueues and dequeues under seeded
// schedules and checks each history against the queue type. ctx is
// checked between walks.
func e9Queue(ctx context.Context, seeds int) (bool, error) {
	const procs = 3
	target := types.Queue(procs, 10, 32)
	alphabet := []types.Invocation{types.Deq}
	scripts := make([][]types.Invocation, procs)
	for p := range scripts {
		for i := 0; i < 6; i++ {
			inv := types.Deq
			if i%2 == 0 {
				inv = types.Enq(p*3 + i%3)
				alphabet = append(alphabet, inv)
			}
			scripts[p] = append(scripts[p], inv)
		}
	}
	im, err := universal.MachineImplementation(target, types.QueueState(), procs, procs*6, alphabet)
	if err != nil {
		return false, err
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		w, err := explore.Walk(im, scripts, explore.Schedule{Seed: seed})
		if err != nil {
			return false, nil
		}
		if _, err := linearize.Check(target, types.QueueState(), w.History); err != nil {
			return false, nil
		}
	}
	return true, nil
}
