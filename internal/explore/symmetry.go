package explore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"waitfree/internal/program"
)

// This file implements process-permutation symmetry reduction for the
// consensus engines. Section 4.2 explores one execution tree per proposal
// vector; when the implementation is process-symmetric, proposal vectors
// that are permutations of one another generate isomorphic trees, so the
// engine explores one representative tree per orbit and replays its
// outcome to the remaining members — an up to n!-fold reduction in
// explored configurations with a merged report byte-identical to the
// unreduced run (see DESIGN.md §7 for the soundness argument).
//
// Three conditions make the reduction sound, checked by symmetricErr:
//
//   - Implementation.SymmetricProcs declares the machines interchangeable
//     (the scalarset idiom: machine behavior is not mechanically
//     decidable, so uniformity is a declared contract — but see
//     verifyOrbitRoots, which checks its observable consequence at every
//     tree root via canonical configuration keys).
//   - Every object's Spec is oblivious (§2.1): transitions ignore the
//     accessing port, so renaming processes fixes every object state
//     pointwise along the renamed execution.
//   - Every object gives every process a port: a permutation must carry
//     each process's access capability to the process taking its role.

// SymmetryMode selects process-permutation symmetry reduction for
// ConsensusKContext (Options.Symmetry).
type SymmetryMode int

const (
	// SymmetryOff (the zero value) explores every proposal-vector tree.
	SymmetryOff SymmetryMode = iota
	// SymmetryAuto reduces when the implementation qualifies (declared
	// SymmetricProcs, oblivious fully-ported objects, no MemoBudget, and
	// orbit roots verified) and silently explores unreduced otherwise.
	SymmetryAuto
	// SymmetryRequire reduces like SymmetryAuto but surfaces the
	// disqualifying condition as an error wrapping ErrNotSymmetric instead
	// of falling back.
	SymmetryRequire
)

// ErrNotSymmetric is the sentinel wrapped when SymmetryRequire is set but
// the run cannot be symmetry-reduced.
var ErrNotSymmetric = errors.New("explore: implementation is not process-symmetric")

// String renders the mode as its CLI tag.
func (m SymmetryMode) String() string {
	switch m {
	case SymmetryOff:
		return "off"
	case SymmetryAuto:
		return "auto"
	case SymmetryRequire:
		return "require"
	}
	return fmt.Sprintf("symmetry(%d)", int(m))
}

// ParseSymmetryMode parses the -symmetry CLI tags "off", "auto", and
// "require".
func ParseSymmetryMode(s string) (SymmetryMode, error) {
	switch s {
	case "off":
		return SymmetryOff, nil
	case "auto":
		return SymmetryAuto, nil
	case "require":
		return SymmetryRequire, nil
	}
	return SymmetryOff, fmt.Errorf("unknown symmetry mode %q (want off, auto, or require)", s)
}

// Symmetric reports whether im satisfies the statically checkable
// process-symmetry conditions (declared interchangeable machines over
// oblivious, fully ported objects).
func Symmetric(im *program.Implementation) bool { return symmetricErr(im) == nil }

// symmetricErr explains why im cannot be symmetry-reduced, or nil.
func symmetricErr(im *program.Implementation) error {
	if !im.SymmetricProcs {
		return fmt.Errorf("%w: %s does not declare SymmetricProcs", ErrNotSymmetric, im.Name)
	}
	for i := range im.Objects {
		obj := &im.Objects[i]
		if !obj.Spec.Oblivious {
			return fmt.Errorf("%w: object %s has port-aware type %s", ErrNotSymmetric, obj.Name, obj.Spec.Name)
		}
		for p := 0; p < im.Procs; p++ {
			if obj.Port(p) == 0 {
				return fmt.Errorf("%w: object %s gives process %d no port", ErrNotSymmetric, obj.Name, p)
			}
		}
	}
	return nil
}

// orbitMember is one non-representative mask of an orbit. perm[p] is the
// representative-tree process whose role member process p plays: the
// member's proposals satisfy vec[p] == repVec[perm[p]], so under a
// symmetric implementation the member tree is the representative tree with
// process p relabeled perm[p].
type orbitMember struct {
	mask int
	perm []int
}

// orbit is one equivalence class of proposal-vector masks under process
// permutation. rep is the orbit's minimal mask (the explored
// representative); members are the remaining masks, ascending.
type orbit struct {
	rep     int
	members []orbitMember
}

// computeOrbits partitions the masks 0..roots-1 into orbits: two masks are
// equivalent iff their proposal vectors have equal multisets. Iterating
// masks in ascending order makes the first mask of each class its minimum
// — the vector with digits non-increasing, since ProposalVectorK weights
// digit p by k^p — so orbits come out ordered by representative mask.
func computeOrbits(procs, k, roots int) []orbit {
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
		ob := &orbits[oi]
		repVec := ProposalVectorK(ob.rep, procs, k)
		ob.members = append(ob.members, orbitMember{mask: mask, perm: matchPerm(vec, repVec)})
	}
	return orbits
}

// matchPerm returns perm with member[p] == rep[perm[p]], assigning equal
// values by ascending position on both sides. Any consistent assignment is
// sound: processes proposing equal values are behaviorally identical under
// a symmetric implementation, so their roles are interchangeable.
func matchPerm(member, rep []int) []int {
	posByVal := make(map[int][]int, len(rep))
	for q, v := range rep {
		posByVal[v] = append(posByVal[v], q)
	}
	perm := make([]int, len(member))
	for p, v := range member {
		perm[p] = posByVal[v][0]
		posByVal[v] = posByVal[v][1:]
	}
	return perm
}

// singletonOrbits is the degenerate partition of an unreduced run: every
// mask is its own representative.
func singletonOrbits(roots int) []orbit {
	orbits := make([]orbit, roots)
	for mask := range orbits {
		orbits[mask].rep = mask
	}
	return orbits
}

// planOrbits decides whether the run may be symmetry-reduced and returns
// its work plan: true orbits (reduced=true) when reduction applies, one
// singleton orbit per mask otherwise. SymmetryRequire surfaces the
// disqualifying condition as an error; SymmetryAuto falls back silently.
func planOrbits(im *program.Implementation, k, roots int, opts Options) (orbits []orbit, reduced bool, err error) {
	if opts.Symmetry == SymmetryOff {
		return singletonOrbits(roots), false, nil
	}
	reason := symmetricErr(im)
	if reason == nil && opts.MemoBudget > 0 {
		// Budgeted memo eviction is triggered by traversal order, and a
		// member tree traverses its (isomorphic) configurations in permuted
		// order, so replayed MemoHits could drift from what an unreduced
		// run would count. Every other aggregate is order-invariant; see
		// the replayTree comment.
		reason = fmt.Errorf("%w: MemoBudget eviction is traversal-order dependent", ErrNotSymmetric)
	}
	if reason == nil {
		orbits = computeOrbits(im.Procs, k, roots)
		if reason = verifyOrbitRoots(im, k, orbits); reason == nil {
			return orbits, true, nil
		}
	}
	if opts.Symmetry == SymmetryRequire {
		return nil, false, reason
	}
	return singletonOrbits(roots), false, nil
}

// verifyOrbitRoots certifies the declared symmetry dynamically: every
// member tree's root configuration must equal its representative's root up
// to process permutation — equal canonical keys, their segments interned
// by one shared explorer. This catches implementations that declare
// SymmetricProcs but whose machines actually treat processes differently
// (the declaration itself is not mechanically checkable). Roots are cheap
// to build — each is one newRoot call, no tree is explored.
func verifyOrbitRoots(im *program.Implementation, k int, orbits []orbit) error {
	var e *explorer
	rootKey := func(mask int) ([]byte, error) {
		scripts := consensusScripts(ProposalVectorK(mask, im.Procs, k))
		var root *config
		var err error
		if e == nil {
			e, root, err = newExplorer(im, scripts, Options{})
		} else {
			e.scripts = scripts
			root, err = e.newRoot()
		}
		if err != nil {
			return nil, err
		}
		key, _ := e.canonKey(root)
		return key, nil
	}
	for i := range orbits {
		ob := &orbits[i]
		if len(ob.members) == 0 {
			continue
		}
		repKey, err := rootKey(ob.rep)
		if err != nil {
			return err
		}
		for _, m := range ob.members {
			mKey, err := rootKey(m.mask)
			if err != nil {
				return err
			}
			if !bytes.Equal(repKey, mKey) {
				return fmt.Errorf("%w: root of proposals %v is not a process permutation of proposals %v (%s declares SymmetricProcs, but its machines differ)",
					ErrNotSymmetric, ProposalVectorK(m.mask, im.Procs, k), ProposalVectorK(ob.rep, im.Procs, k), im.Name)
			}
		}
	}
	return nil
}

// invertPerm inverts a role map (nil passes through: the identity).
func invertPerm(perm []int) []int {
	if perm == nil {
		return nil
	}
	inv := make([]int, len(perm))
	for p, q := range perm {
		inv[q] = p
	}
	return inv
}

// replayTree derives the tree of mask from src, an already-known clean
// tree of the same orbit, without exploring it. srcPerm and dstPerm are the
// two trees' role maps onto the orbit representative (nil when the tree is
// the representative itself); composing them relates the destination
// directly to the source, so a resumed run can replay from any preloaded
// orbit member, not just the representative.
//
// Soundness of the shared fields: the trees are isomorphic under process
// relabeling (uniform machines make a process's behavior a function of its
// proposal alone; oblivious objects make transitions port-independent), and
// although the member tree's DFS visits the isomorphic configurations in a
// permuted order, every shared aggregate is order-invariant — Nodes/Leaves
// are sums over the virtual tree, Depth/MaxAccess/OpAccess are maxima over
// paths, MemoHits counts incoming DAG edges beyond the first per distinct
// configuration, the decided set is a union over leaves, and Degraded
// (budget exhaustion) is excluded by planOrbits. The slices and maps are
// shared, not copied: no tree is mutated once done. Only ProcSteps is
// rebuilt: destination process p takes the bound of the source process
// playing the same representative role.
func replayTree(src *TreeResult, mask int, srcPerm, dstPerm []int) TreeResult {
	srcFromRep := invertPerm(srcPerm)
	tr := *src
	tr.Mask = mask
	tr.ProcSteps = make([]int, len(src.ProcSteps))
	for p := range tr.ProcSteps {
		slot := p
		if dstPerm != nil {
			slot = dstPerm[p]
		}
		q := slot
		if srcFromRep != nil {
			q = srcFromRep[slot]
		}
		tr.ProcSteps[p] = src.ProcSteps[q]
	}
	return tr
}
