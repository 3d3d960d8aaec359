package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"waitfree/internal/explore"
	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/registers"
	"waitfree/internal/types"
)

// E2 reproduces the Section 4.1 chain: multi-reader, multi-writer,
// multi-value atomic registers from SRSW bits. Every layer is a step
// machine running over atomic objects of the layer below (sound by the
// locality of linearizability), and every interleaving of a small script
// is explored; each leaf history is checked against the layer's condition
// — regularity for the Lamport layers, atomicity (linearizability) for the
// rest. The base regular bit is additionally shown NOT to be atomic (the
// new/old inversion), which is why the atomic layers exist.
func E2(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Register construction chain (Section 4.1)",
		PaperClaim: "There is a wait-free implementation of multi-reader multi-writer atomic " +
			"multi-value registers from single-reader single-writer bits " +
			"(Lamport; Burns-Peterson; Peterson; Peterson-Burns).",
		Expectation: "Each layer meets its condition on every interleaving of its script " +
			"(exhaustive exploration over atomic objects of the layer below); " +
			"a bare regular bit fails atomicity.",
		Columns: []string{"layer", "parties", "scripts (per process)", "values", "base objects",
			"interleavings", "condition", "holds"},
	}

	// Base regular bit: regular yes, atomic no (deterministic inversion).
	allOK := e2RegularInversion()
	t.Rows = append(t.Rows, []string{"regular bit (base cell)", "1W/1R", "w1 / r r", "2", "1 regular bit",
		"1 (deterministic adversary)", "regular but NOT atomic", yn(allOK)})

	for _, l := range RegisterLayers() {
		res, err := l.Explore(ctx)
		if err != nil {
			return nil, err
		}
		ok := res.Violation == nil
		allOK = allOK && ok
		condition := "regularity"
		if l.Atomic {
			condition = "atomicity"
		}
		t.Rows = append(t.Rows, []string{l.Name, parties(l.Scripts), formatScripts(l.Scripts),
			strconv.Itoa(len(l.Impl.Target.Alphabet) - 1), baseObjects(l.Impl),
			strconv.FormatInt(res.Leaves, 10), condition, yn(ok)})
	}

	t.Verdict = verdict(allOK,
		"every layer satisfies its specification on every interleaving of its script; "+
			"the chain delivers MRMW multi-value atomic registers from SRSW bits")
	return t, nil
}

// RegisterLayer is one layer of the Section 4.1 chain as E2 checks it: a
// machine-form implementation initialized to 0, the scripts whose
// interleavings are all explored, and the condition every leaf history
// must meet.
type RegisterLayer struct {
	Name    string
	Impl    *program.Implementation
	Scripts [][]types.Invocation
	// Atomic selects linearizability against Impl.Target; otherwise the
	// leaf histories are checked for single-writer regularity.
	Atomic bool
}

// RegisterLayers returns E2's exhaustive rows, bottom of the chain first.
func RegisterLayers() []RegisterLayer {
	r := func(n int) []types.Invocation {
		script := make([]types.Invocation, n)
		for i := range script {
			script[i] = types.Read
		}
		return script
	}
	w := func(vs ...int) []types.Invocation {
		script := make([]types.Invocation, len(vs))
		for i, v := range vs {
			script[i] = types.Write(v)
		}
		return script
	}
	return []RegisterLayer{
		{Name: "Lamport MRSW regular bit", Impl: registers.LamportMRBitMachines(2, 0),
			Scripts: [][]types.Invocation{r(2), r(1), w(1, 0)}},
		{Name: "Lamport SRSW regular multi-value", Impl: registers.LamportMultiRegMachines(4, 0),
			Scripts: [][]types.Invocation{r(2), w(3, 1)}},
		{Name: "Vidyasankar SRSW atomic multi-value", Impl: registers.VidyasankarMachines(4, 0),
			Scripts: [][]types.Invocation{r(2), w(3, 1)}, Atomic: true},
		{Name: "MRSW atomic multi-value (reader-announce)", Impl: registers.MRSWMachines(2, 3, 2, 0),
			Scripts: [][]types.Invocation{r(2), r(1), w(1, 2)}, Atomic: true},
		{Name: "MRMW atomic multi-value (timestamp-max)", Impl: registers.MRMWMachines(2, 2, 4, 2, 0),
			Scripts: [][]types.Invocation{w(1), w(2), r(2), r(1)}, Atomic: true},
	}
}

// Explore runs every interleaving of the layer's scripts under ctx,
// checking each leaf history; a failed check is the result's Violation.
func (l RegisterLayer) Explore(ctx context.Context) (*explore.Result, error) {
	check := func(h hist.History) error { return linearize.CheckRegular(h, 0) }
	if l.Atomic {
		check = func(h hist.History) error {
			_, err := linearize.Check(l.Impl.Target, 0, h)
			return err
		}
	}
	return explore.RunContext(ctx, l.Impl, l.Scripts, explore.Options{
		RecordHistory: true,
		OnLeaf:        func(leaf *explore.Leaf) error { return check(leaf.History()) },
	})
}

// parties renders the writer and reader counts of a script set.
func parties(scripts [][]types.Invocation) string {
	writers := 0
	for _, s := range scripts {
		if len(s) > 0 && s[0].Op == types.OpWrite {
			writers++
		}
	}
	return fmt.Sprintf("%dW/%dR", writers, len(scripts)-writers)
}

// formatScripts renders each process's script ("r" reads, "w<v>" writes),
// processes separated by slashes.
func formatScripts(scripts [][]types.Invocation) string {
	procs := make([]string, len(scripts))
	for p, s := range scripts {
		ops := make([]string, len(s))
		for i, inv := range s {
			ops[i] = "r"
			if inv.Op == types.OpWrite {
				ops[i] = "w" + strconv.Itoa(inv.A)
			}
		}
		procs[p] = strings.Join(ops, " ")
	}
	return strings.Join(procs, " / ")
}

// baseObjects renders the objects a layer runs over: their count, type
// and, for multi-value registers, value range.
func baseObjects(im *program.Implementation) string {
	spec := im.Objects[0].Spec
	desc := fmt.Sprintf("%d %s", len(im.Objects), spec.Name)
	if spec.Name != types.SRSWBit().Name {
		desc += fmt.Sprintf(" (%d values)", len(spec.Alphabet)-1)
	}
	return desc
}

// e2RegularInversion checks the new/old inversion of a regular bit: a
// write of 1 over the initial 0 overlaps two reads, the first returning the
// new value and the second the old one. Regularity allows the history and
// atomicity forbids it.
func e2RegularInversion() bool {
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Write(1), Resp: types.OK, Begin: 0, End: 5},
		{Proc: 1, Port: 1, Inv: types.Read, Resp: types.ValOf(1), Begin: 1, End: 2},
		{Proc: 1, Port: 1, Inv: types.Read, Resp: types.ValOf(0), Begin: 3, End: 4},
	}
	if linearize.CheckRegular(h, 0) != nil {
		return false
	}
	_, err := linearize.Check(types.Register(2, 2), 0, h)
	return err != nil // must NOT be linearizable
}
