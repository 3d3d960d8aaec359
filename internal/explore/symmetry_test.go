package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/multivalue"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// TestComputeOrbits pins the binary 3-process orbit structure and the
// role-map invariant member[p] == rep[perm[p]] on every member.
func TestComputeOrbits(t *testing.T) {
	orbits := computeOrbits(3, 2, 8)
	wantReps := []int{0, 1, 3, 7}
	if len(orbits) != len(wantReps) {
		t.Fatalf("got %d orbits, want %d", len(orbits), len(wantReps))
	}
	wantMembers := map[int][]int{0: nil, 1: {2, 4}, 3: {5, 6}, 7: nil}
	for i, ob := range orbits {
		if ob.rep != wantReps[i] {
			t.Fatalf("orbit %d has rep %d, want %d", i, ob.rep, wantReps[i])
		}
		var masks []int
		for _, m := range ob.members {
			masks = append(masks, m.mask)
			vec := ProposalVectorK(m.mask, 3, 2)
			repVec := ProposalVectorK(ob.rep, 3, 2)
			for p := range vec {
				if vec[p] != repVec[m.perm[p]] {
					t.Errorf("mask %d: vec[%d]=%d but rep[perm[%d]=%d]=%d",
						m.mask, p, vec[p], p, m.perm[p], repVec[m.perm[p]])
				}
			}
		}
		if !reflect.DeepEqual(masks, wantMembers[ob.rep]) {
			t.Errorf("rep %d has members %v, want %v", ob.rep, masks, wantMembers[ob.rep])
		}
	}
}

// referenceOrbits is the string-keyed partition computeOrbits replaced:
// masks keyed by fmt.Sprint of their sorted proposal vector, first-seen
// order, with each member's role map matched through a map of positions.
func referenceOrbits(procs, k, roots int) []orbit {
	index := make(map[string]int)
	var orbits []orbit
	for mask := 0; mask < roots; mask++ {
		vec := ProposalVectorK(mask, procs, k)
		sorted := append([]int(nil), vec...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		key := fmt.Sprint(sorted)
		oi, ok := index[key]
		if !ok {
			index[key] = len(orbits)
			orbits = append(orbits, orbit{rep: mask})
			continue
		}
		posByVal := make(map[int][]int)
		for q, v := range ProposalVectorK(orbits[oi].rep, procs, k) {
			posByVal[v] = append(posByVal[v], q)
		}
		perm := make([]int, procs)
		for p, v := range vec {
			perm[p] = posByVal[v][0]
			posByVal[v] = posByVal[v][1:]
		}
		orbits[oi].members = append(orbits[oi].members, orbitMember{mask: mask, perm: perm})
	}
	return orbits
}

// TestComputeOrbitsMatchesReference pins the count-vector partition to the
// string-keyed one it replaced: the same orbits, representatives, members
// and role maps, in the same order, for binary and wider proposal sets.
func TestComputeOrbitsMatchesReference(t *testing.T) {
	for _, tc := range []struct{ procs, k int }{
		{1, 2}, {2, 2}, {3, 2}, {5, 2}, {8, 2}, {3, 3}, {4, 3}, {2, 5}, {5, 4},
	} {
		roots := 1
		for i := 0; i < tc.procs; i++ {
			roots *= tc.k
		}
		if got, want := computeOrbits(tc.procs, tc.k, roots), referenceOrbits(tc.procs, tc.k, roots); !reflect.DeepEqual(got, want) {
			t.Errorf("procs=%d k=%d: orbits differ from the reference", tc.procs, tc.k)
		}
	}
}

// TestSymmetric pins the symmetry certificate on the built-ins: the
// tabulation over binary proposals must accept exactly the single-object
// protocols, including 12-process objects too large for the cache key, and
// refuse the rest, each for its own reason.
func TestSymmetric(t *testing.T) {
	for _, tc := range []struct {
		im   *program.Implementation
		want bool
	}{
		{consensus.CAS(3), true},
		{consensus.Sticky(4), true},
		{consensus.AugQueue(3), true},
		{consensus.FetchCons(3), true},
		// 2^13-1 object states, beyond the cache key's budget but within
		// the certificate's for 2^12 trees.
		{consensus.FetchCons(12), true},
		{consensus.AugQueue(12), true},
		{consensus.TAS2(), false},           // SRSW prefer bits: not fully ported
		{consensus.Queue2(), false},         // likewise
		{consensus.NaiveRegister2(), false}, // per-process machines
	} {
		err := symmetryReason(tc.im, 2, 1<<tc.im.Procs, Options{})
		if got := err == nil; got != tc.want {
			t.Errorf("%s: symmetric = %v, want %v (%v)", tc.im.Name, got, tc.want, err)
		}
		if err != nil && !errors.Is(err, ErrNotSymmetric) {
			t.Errorf("%s: refusal %v does not wrap ErrNotSymmetric", tc.im.Name, err)
		}
	}
	// planOrbits stops tabulating at the first object row or machine
	// table that refutes symmetry; the full tabulation behind the cache key
	// must agree.
	certifies := func(im *program.Implementation, refute bool) bool {
		tab, err := tabulate(im, proposeStarts(2), canonStates, refute)
		return err == nil && tab.symmetryErr(im) == nil
	}
	for _, im := range append(consensus.Corpus(), multivalue.FromBinary(3, 2), multivalue.FromBinarySRSW(2)) {
		if early, full := certifies(im, true), certifies(im, false); early != full {
			t.Errorf("%s: early tabulation certifies %v, full tabulation %v", im.Name, early, full)
		}
	}
}

// TestSymmetryParityCorpus is the acceptance gate of the reduction: on
// every corpus protocol — symmetric or not, correct or violating, memoized
// or not, at every parallelism level — SymmetryAuto must produce a report
// deep-equal to the unreduced run. Only Stats (observational) is excluded.
func TestSymmetryParityCorpus(t *testing.T) {
	for _, im := range consensus.Corpus() {
		for _, memoize := range []bool{false, true} {
			base, baseErr := ConsensusKContext(context.Background(), im, 2, Options{Memoize: memoize, Parallelism: 1})
			stripStats(base)
			for _, workers := range []int{1, 2, 0} {
				red, redErr := ConsensusKContext(context.Background(), im, 2, Options{Memoize: memoize, Parallelism: workers, Symmetry: SymmetryAuto})
				stripStats(red)
				if (baseErr == nil) != (redErr == nil) {
					t.Fatalf("%s memoize=%v workers=%d: error mismatch: %v vs %v",
						im.Name, memoize, workers, baseErr, redErr)
				}
				if baseErr != nil {
					continue
				}
				if !reflect.DeepEqual(base, red) {
					t.Errorf("%s memoize=%v workers=%d: symmetry changed the report\nbase: %+v\nred:  %+v",
						im.Name, memoize, workers, base, red)
				}
			}
		}
	}
}

// TestSymmetryKParity covers the multi-valued orbits (k^n masks grouped by
// proposal multiset) the binary corpus misses: 9 masks, 6 orbits. CAS(2)
// under k=3 happens to violate (proposal 2 collides with the protocol's
// bottom sentinel), which makes this a parity check on a k-valued
// violating run too: the merge must stop at the same mask either way.
func TestSymmetryKParity(t *testing.T) {
	im := consensus.CAS(2)
	base, err := ConsensusKContext(context.Background(), im, 3, Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	red, err := ConsensusKContext(context.Background(), im, 3, Options{Memoize: true, Symmetry: SymmetryRequire})
	if err != nil {
		t.Fatal(err)
	}
	if red.Stats.Orbits != 6 {
		t.Errorf("orbits=%d, want 6 orbits over 9 masks", red.Stats.Orbits)
	}
	if !reflect.DeepEqual(stripStats(base), stripStats(red)) {
		t.Errorf("k=3 symmetry changed the report\nbase: %+v\nred:  %+v", base, red)
	}
}

// TestSymmetryReducesWork is the other half of the acceptance criterion:
// on every 3-process symmetric protocol the reduced engine must explore
// strictly fewer configurations, while finishing all 8 trees (4 orbits).
func TestSymmetryReducesWork(t *testing.T) {
	for _, im := range []*program.Implementation{
		consensus.CAS(3), consensus.Sticky(3), consensus.AugQueue(3), consensus.FetchCons(3),
	} {
		full, err := ConsensusKContext(context.Background(), im, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		red, err := ConsensusKContext(context.Background(), im, 2, Options{Symmetry: SymmetryRequire})
		if err != nil {
			t.Fatalf("%s: %v", im.Name, err)
		}
		if red.Stats.Nodes >= full.Stats.Nodes {
			t.Errorf("%s: reduced engine explored %d nodes, unreduced %d — no reduction",
				im.Name, red.Stats.Nodes, full.Stats.Nodes)
		}
		if red.Stats.Orbits != 4 || red.Stats.OrbitsDone != 4 {
			t.Errorf("%s: orbits %d/%d, want 4/4", im.Name, red.Stats.OrbitsDone, red.Stats.Orbits)
		}
		if red.Stats.TreesDone != 8 || red.Stats.ReplayedTrees != 4 {
			t.Errorf("%s: trees=%d replayed=%d, want 8 trees with 4 replayed",
				im.Name, red.Stats.TreesDone, red.Stats.ReplayedTrees)
		}
		if full.Stats.Orbits != 0 || full.Stats.ReplayedTrees != 0 {
			t.Errorf("%s: unreduced run reports orbit stats %d/%d", im.Name, full.Stats.Orbits, full.Stats.ReplayedTrees)
		}
	}
}

// TestSymmetryModes pins the mode semantics: Require fails loudly on every
// disqualified run, Auto falls back silently with an unchanged report, and
// Validate rejects out-of-range modes.
func TestSymmetryModes(t *testing.T) {
	// TAS2's SRSW prefer bits are not fully ported: not symmetric.
	if _, err := ConsensusKContext(context.Background(), consensus.TAS2(), 2, Options{Symmetry: SymmetryRequire}); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("Require on TAS2: err = %v, want ErrNotSymmetric", err)
	}
	// A memo budget makes MemoHits traversal-order dependent: excluded.
	if _, err := ConsensusKContext(context.Background(), consensus.CAS(3), 2, Options{Memoize: true, MemoBudget: 8, Symmetry: SymmetryRequire}); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("Require with MemoBudget: err = %v, want ErrNotSymmetric", err)
	}
	// A tabulation that fails is a refusal: identical machines over an
	// oblivious, fully ported counter with more states than the budget.
	counter := &types.Spec{
		Name: "unbounded-counter", Ports: 2, Oblivious: true, Deterministic: true,
		Alphabet: []types.Invocation{types.Inv("inc")},
		Step: func(q types.State, _ int, _ types.Invocation) []types.Transition {
			return []types.Transition{{Next: q.(int) + 1, Resp: types.OK}}
		},
	}
	inc := program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return 0 },
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			if state.(int) == 0 {
				return program.InvokeAction(0, types.Inv("inc")), 1
			}
			return program.ReturnAction(types.ValOf(0), nil), state
		},
	}
	uncanonical := &program.Implementation{
		Name: "counter", Target: types.Consensus(2), Procs: 2,
		Objects:  []program.ObjectDecl{{Name: "c", Spec: counter, Init: 0, PortOf: program.AllPorts(2)}},
		Machines: []program.Machine{inc, inc},
	}
	if _, err := ConsensusKContext(context.Background(), uncanonical, 2, Options{Symmetry: SymmetryRequire}); !errors.Is(err, ErrNotSymmetric) || !errors.Is(err, ErrUncanonical) {
		t.Errorf("Require on an untabulable implementation: err = %v, want ErrNotSymmetric wrapping ErrUncanonical", err)
	}
	base, err := ConsensusKContext(context.Background(), consensus.TAS2(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := ConsensusKContext(context.Background(), consensus.TAS2(), 2, Options{Symmetry: SymmetryAuto})
	if err != nil {
		t.Fatalf("Auto on an asymmetric protocol must fall back, got %v", err)
	}
	if auto.Stats.Orbits != 0 {
		t.Errorf("fallback run reports %d orbits, want 0", auto.Stats.Orbits)
	}
	if !reflect.DeepEqual(stripStats(base), stripStats(auto)) {
		t.Error("Auto fallback changed the report")
	}
	for _, bad := range []SymmetryMode{-1, 99} {
		if _, err := ConsensusKContext(context.Background(), consensus.CAS(2), 2, Options{Symmetry: bad}); !errors.Is(err, ErrBadOptions) {
			t.Errorf("Symmetry=%d: err = %v, want ErrBadOptions", int(bad), err)
		}
	}
	for _, tc := range []struct {
		in   string
		want SymmetryMode
		ok   bool
	}{
		{"off", SymmetryOff, true}, {"auto", SymmetryAuto, true}, {"require", SymmetryRequire, true}, {"maybe", 0, false},
	} {
		got, err := ParseSymmetryMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSymmetryMode(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("String() round-trip of %q gives %q", tc.in, got.String())
		}
	}
}

// ownValue3 is a deliberately incorrect symmetric protocol: each process
// announces in a shared register and decides its own proposal, violating
// agreement on any mixed proposal vector. It exercises the violating path
// under reduction: the first violating mask is 1, the representative of
// the orbit {1, 2, 4}, so the reduced merge must stop at exactly the same
// mask with exactly the same counterexample as the unreduced one.
func ownValue3() *program.Implementation {
	type pcState struct{ PC, V int }
	machine := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return pcState{PC: 0, V: inv.A} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(pcState)
			if s.PC == 0 {
				return program.InvokeAction(0, types.Write(s.V)), pcState{PC: 1, V: s.V}
			}
			return program.ReturnAction(types.ValOf(s.V), nil), s
		},
	}
	return &program.Implementation{
		Name:   "ownvalue-3",
		Target: types.Consensus(3),
		Procs:  3,
		Objects: []program.ObjectDecl{{
			Name:   "ann",
			Spec:   types.Register(3, 2),
			Init:   0,
			PortOf: program.AllPorts(3),
		}},
		Machines: []program.Machine{machine, machine, machine},
	}
}

// TestSymmetryViolationParity checks the violating-run equivalence in
// full: verdicts, the violating proposal vector, and the counterexample
// schedule itself must be identical, because the first violating mask is
// always an orbit representative (representatives are orbit minima).
func TestSymmetryViolationParity(t *testing.T) {
	im := ownValue3()
	base, err := ConsensusKContext(context.Background(), im, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := ConsensusKContext(context.Background(), im, 2, Options{Symmetry: SymmetryRequire})
	if err != nil {
		t.Fatal(err)
	}
	if base.OK() || base.Agreement {
		t.Fatalf("ownValue3 unexpectedly verified: %+v", base)
	}
	if !reflect.DeepEqual(base.ViolationProposals, []int{1, 0, 0}) {
		t.Fatalf("first violating proposals %v, want [1 0 0]", base.ViolationProposals)
	}
	if !reflect.DeepEqual(stripStats(base), stripStats(red)) {
		t.Errorf("violating report differs under symmetry\nbase: %+v\nred:  %+v", base, red)
	}
}

// TestSymmetryFaultsParity runs the reduction under exhaustive crash
// exploration: renaming processes maps crash schedules to crash schedules,
// so the reduced fault-model report must also match byte for byte.
func TestSymmetryFaultsParity(t *testing.T) {
	im := consensus.Sticky(3)
	opts := Options{Faults: faults.Model{MaxCrashes: 1}}
	base, err := ConsensusKContext(context.Background(), im, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Symmetry = SymmetryRequire
	red, err := ConsensusKContext(context.Background(), im, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if red.Stats.ReplayedTrees == 0 {
		t.Error("fault run replayed no trees")
	}
	if !reflect.DeepEqual(stripStats(base), stripStats(red)) {
		t.Errorf("fault-model report differs under symmetry\nbase: %+v\nred:  %+v", base, red)
	}
}

// TestSymmetryResumeFromMemberTrees resumes a reduced run from a
// checkpoint that recorded only non-representative orbit members (masks 2
// and 6 of the orbits {1,2,4} and {3,5,6}): the engine must replay the
// representatives FROM the preloaded members through the composed role
// maps, reach the unreduced report, and explore only the singleton orbits.
func TestSymmetryResumeFromMemberTrees(t *testing.T) {
	im := consensus.Sticky(3)
	opts := Options{Memoize: true}
	base, err := ConsensusKContext(context.Background(), im, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Impl:    im.Name,
		Procs:   3,
		Values:  2,
		Roots:   8,
	}
	ctr := newCounters(1, 8)
	for _, mask := range []int{2, 6} {
		out := exploreTree(context.Background(), new(explorer), im, 2, mask, opts, ctr, 0)
		if out.err != nil {
			t.Fatal(out.err)
		}
		cp.Trees = append(cp.Trees, out.TreeResult)
	}
	resumeOpts := opts
	resumeOpts.ResumeFrom = cp
	resumeOpts.Symmetry = SymmetryRequire
	red, err := ConsensusKContext(context.Background(), im, 2, resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Masks 0 and 7 are explored; reps 1 and 3 plus members 4 and 5 replay.
	if red.Stats.ReplayedTrees != 4 || red.Stats.TreesDone != 8 {
		t.Errorf("resume replayed %d of %d trees, want 4 of 8 done", red.Stats.ReplayedTrees, red.Stats.TreesDone)
	}
	if !reflect.DeepEqual(stripStats(base), stripStats(red)) {
		t.Errorf("member-tree resume differs from the uninterrupted report\nbase: %+v\nred:  %+v", base, red)
	}
}

// TestVerifyOrbitRootsCatchesLiar builds a protocol whose machines differ
// from the first step (each process sticks its id's parity regardless of
// its proposal): the tabulation certificate must reject it under Require
// and fall back under Auto.
func TestVerifyOrbitRootsCatchesLiar(t *testing.T) {
	type pcState struct{ PC, V int }
	machine := func(p int) program.Machine {
		return program.FuncMachine{
			StartFn: func(inv types.Invocation, _ any) any { return pcState{PC: 0, V: inv.A} },
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				s := state.(pcState)
				if s.PC == 0 {
					// Port-aware: the stuck value depends on the identity.
					return program.InvokeAction(0, types.Inv(types.OpStick, p%2)), pcState{PC: 1, V: s.V}
				}
				return program.ReturnAction(types.ValOf(resp.Val), nil), s
			},
		}
	}
	im := &program.Implementation{
		Name:   "liar-3",
		Target: types.Consensus(3),
		Procs:  3,
		Objects: []program.ObjectDecl{{
			Name:   "sticky",
			Spec:   types.StickyCell(3, 2),
			Init:   types.StickyUnset,
			PortOf: program.AllPorts(3),
		}},
		Machines: []program.Machine{machine(0), machine(1), machine(2)},
	}
	if _, err := ConsensusKContext(context.Background(), im, 2, Options{Symmetry: SymmetryRequire}); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("root certificate accepted a lying declaration: err = %v", err)
	}
	base, err := ConsensusKContext(context.Background(), im, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := ConsensusKContext(context.Background(), im, 2, Options{Symmetry: SymmetryAuto})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Stats.Orbits != 0 {
		t.Errorf("Auto reduced a lying declaration (%d orbits)", auto.Stats.Orbits)
	}
	if !reflect.DeepEqual(stripStats(base), stripStats(auto)) {
		t.Error("Auto fallback on a lying declaration changed the report")
	}
}

// TestSymmetryPostRootLiar covers machines that agree at every tree root
// and diverge later: process 1 runs CAS(2)'s machine but reports a
// decision of 1 as 0 when it proposed 1. The machines are not
// interchangeable, so SymmetryAuto must explore unreduced and produce the
// SymmetryOff report, and SymmetryRequire must refuse.
func TestSymmetryPostRootLiar(t *testing.T) {
	im := consensus.CAS(2)
	honest := im.Machines[0]
	liar := program.FuncMachine{
		StartFn: honest.Start,
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			act, next := honest.Next(state, resp)
			proposed := reflect.ValueOf(state).FieldByName("V").Int()
			if act.Kind == program.KindReturn && proposed == 1 && act.Resp == types.ValOf(1) {
				act.Resp = types.ValOf(0)
			}
			return act, next
		},
	}
	lying := &program.Implementation{
		Name:     "cas-post-root-liar",
		Target:   im.Target,
		Procs:    2,
		Objects:  im.Objects,
		Machines: []program.Machine{honest, liar},
	}
	off, err := ConsensusKContext(context.Background(), lying, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := ConsensusKContext(context.Background(), lying, 2, Options{Symmetry: SymmetryAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStats(off), stripStats(auto)) {
		t.Errorf("SymmetryAuto changed the report of a post-root liar\noff:  %+v\nauto: %+v", off, auto)
	}
	if _, err := ConsensusKContext(context.Background(), lying, 2, Options{Symmetry: SymmetryRequire}); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("SymmetryRequire on a post-root liar: err = %v, want ErrNotSymmetric", err)
	}
}
