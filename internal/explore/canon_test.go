package explore

import (
	"bytes"
	"errors"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

func proposeStarts(k int) []types.Invocation {
	starts := make([]types.Invocation, k)
	for v := range starts {
		starts[v] = types.Propose(v)
	}
	return starts
}

// permuteProcs relabels the processes of im by perm: process p of the
// result plays the role im's process perm[p] played.
func permuteProcs(im *program.Implementation, perm []int) *program.Implementation {
	out := *im
	out.Machines = make([]program.Machine, im.Procs)
	for p := range out.Machines {
		out.Machines[p] = im.Machines[perm[p]]
	}
	out.Objects = make([]program.ObjectDecl, len(im.Objects))
	for i := range im.Objects {
		decl := im.Objects[i]
		ports := make([]int, im.Procs)
		for p := range ports {
			ports[p] = decl.PortOf[perm[p]]
		}
		decl.PortOf = ports
		out.Objects[i] = decl
	}
	return &out
}

func TestCanonicalImplementationDeterministic(t *testing.T) {
	a, err := CanonicalImplementation(consensus.CAS(3), proposeStarts(2))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := CanonicalImplementation(consensus.CAS(3), proposeStarts(2))
	if err != nil {
		t.Fatalf("encode again: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two constructions of the same implementation encode differently")
	}
}

func TestCanonicalImplementationSeparatesImplementations(t *testing.T) {
	cas, err := CanonicalImplementation(consensus.CAS(3), proposeStarts(2))
	if err != nil {
		t.Fatalf("cas: %v", err)
	}
	sticky, err := CanonicalImplementation(consensus.Sticky(3), proposeStarts(2))
	if err != nil {
		t.Fatalf("sticky: %v", err)
	}
	cas4, err := CanonicalImplementation(consensus.CAS(4), proposeStarts(2))
	if err != nil {
		t.Fatalf("cas4: %v", err)
	}
	cas3v3, err := CanonicalImplementation(consensus.CAS(3), proposeStarts(3))
	if err != nil {
		t.Fatalf("cas starts=3: %v", err)
	}
	if bytes.Equal(cas, sticky) {
		t.Error("cas and sticky encode identically")
	}
	if bytes.Equal(cas, cas4) {
		t.Error("cas(3) and cas(4) encode identically")
	}
	if bytes.Equal(cas, cas3v3) {
		t.Error("binary and ternary start sets encode identically")
	}
}

func TestCanonicalImplementationPermutationInvariant(t *testing.T) {
	im := consensus.CAS(3)
	perm := permuteProcs(im, []int{2, 0, 1})
	a, err := CanonicalImplementation(im, proposeStarts(2))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := CanonicalImplementation(perm, proposeStarts(2))
	if err != nil {
		t.Fatalf("encode permuted: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("process permutation of a symmetric implementation changed the encoding")
	}
}

// Behaviorally different machines over a fully ported oblivious object
// must NOT collapse positionally swapped variants: their merged reports
// can differ, so their encodings must too.
func TestCanonicalImplementationFalseSymmetryStaysPositional(t *testing.T) {
	build := func(m0, m1 program.Machine) *program.Implementation {
		return &program.Implementation{
			Name:   "lying-symmetric",
			Target: types.Consensus(2),
			Procs:  2,
			Objects: []program.ObjectDecl{{
				Name:   "cell",
				Spec:   types.StickyCell(2, 2),
				Init:   types.StickyUnset,
				PortOf: program.AllPorts(2),
			}},
			Machines: []program.Machine{m0, m1},
		}
	}
	m0 := program.ConstMachine(types.ValOf(0))
	m1 := program.ConstMachine(types.ValOf(1))
	a, err := CanonicalImplementation(build(m0, m1), proposeStarts(2))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := CanonicalImplementation(build(m1, m0), proposeStarts(2))
	if err != nil {
		t.Fatalf("encode swapped: %v", err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("swapping distinct machines collided")
	}
}

func TestCanonicalSpecBudget(t *testing.T) {
	unbounded := &types.Spec{
		Name:          "unbounded-counter",
		Ports:         1,
		Oblivious:     true,
		Deterministic: true,
		Alphabet:      []types.Invocation{types.Inv("inc")},
		Step: func(q types.State, port int, inv types.Invocation) []types.Transition {
			return []types.Transition{{Next: q.(int) + 1, Resp: types.OK}}
		},
	}
	if _, err := CanonicalSpec(unbounded, 0); !errors.Is(err, ErrUncanonical) {
		t.Fatalf("unbounded spec: got %v, want ErrUncanonical", err)
	}
}

func TestCanonicalImplementationUncomparableState(t *testing.T) {
	bad := program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return []int{1} }, // not comparable
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			return program.ReturnAction(types.OK, nil), state
		},
	}
	im := &program.Implementation{
		Name:     "uncomparable",
		Target:   types.Consensus(2),
		Procs:    2,
		Machines: []program.Machine{bad, bad},
	}
	if _, err := CanonicalImplementation(im, proposeStarts(2)); !errors.Is(err, ErrUncanonical) {
		t.Fatalf("uncomparable machine state: got %v, want ErrUncanonical", err)
	}
}

func TestCanonicalSpecSeparatesInits(t *testing.T) {
	spec := types.Register(2, 2)
	a, err := CanonicalSpec(spec, 0)
	if err != nil {
		t.Fatalf("init 0: %v", err)
	}
	b, err := CanonicalSpec(spec, 1)
	if err != nil {
		t.Fatalf("init 1: %v", err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("different initial states encode identically")
	}
}

// An implementation without processes has nothing to permute: it encodes
// positionally instead of failing to pick a machine table.
func TestCanonicalImplementationNoProcesses(t *testing.T) {
	im := &program.Implementation{Name: "empty", Target: types.Consensus(1)}
	enc, err := CanonicalImplementation(im, proposeStarts(2))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if enc[len(enc)-1] != 'P' {
		t.Errorf("zero-process encoding ends in %q, want the positional mode 'P'", enc[len(enc)-1])
	}
}
