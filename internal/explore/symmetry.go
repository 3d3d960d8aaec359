package explore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file implements process-permutation symmetry reduction for the
// consensus engines. Section 4.2 explores one execution tree per proposal
// vector; when the implementation is process-symmetric, proposal vectors
// that are permutations of one another generate isomorphic trees, so the
// engine explores one representative tree per orbit and replays its
// outcome to the remaining members — an up to n!-fold reduction in
// explored configurations with a merged report byte-identical to the
// unreduced run (see DESIGN.md §8 for the soundness argument).
//
// Symmetry is inferred, never declared. The certificate is the behavioral
// tabulation canon.go builds for the result cache (symmetryErr), and it
// asks for four things:
//
//   - every object's Spec is declared oblivious (§2.1): transitions ignore
//     the accessing port, so renaming processes fixes every object state
//     pointwise along the renamed execution;
//   - every object gives every process a port: a permutation must carry
//     each process's access capability to the process taking its role;
//   - every object table is port-independent as tabulated (a declaration
//     alone could lie);
//   - every machine table is byte-identical: the machines are one
//     transducer over everything they can start with and receive, so a
//     process's behavior is a function of its proposal and the responses
//     it receives alone, at every step and not just at the tree root.
//
// The same predicate picks CanonicalImplementation's symmetric mode, so the
// cache key and the reduction never disagree about whether the processes
// are interchangeable; only the certificate's budget grows with the run
// (certStatesPerTree).

// SymmetryMode selects process-permutation symmetry reduction for
// ConsensusKContext (Options.Symmetry).
type SymmetryMode int

const (
	// SymmetryOff (the zero value) explores every proposal-vector tree.
	SymmetryOff SymmetryMode = iota
	// SymmetryAuto reduces when the implementation qualifies (no
	// MemoBudget, and the tabulation certifies symmetry) and silently
	// explores unreduced otherwise.
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

// declaredSymmetryErr is the cheap half of the certificate, read from the
// object declarations alone: every spec declared oblivious and every
// process given a port on every object. nil if both hold.
func declaredSymmetryErr(im *program.Implementation) error {
	for i := range im.Objects {
		obj := &im.Objects[i]
		if obj.Spec == nil || !obj.Spec.Oblivious {
			return fmt.Errorf("%w: object %s is not of a declared-oblivious type", ErrNotSymmetric, obj.Name)
		}
		for p := 0; p < im.Procs; p++ {
			if obj.Port(p) == 0 {
				return fmt.Errorf("%w: object %s gives process %d no port", ErrNotSymmetric, obj.Name, p)
			}
		}
	}
	return nil
}

// symmetryErr is the certificate of process symmetry, the one predicate
// behind both symmetry reduction and CanonicalImplementation's symmetric
// mode: the declarations pass declaredSymmetryErr, every object table is
// port-independent, and every machine tabulates to the same bytes. nil if
// im is process-symmetric over the starts tab was built from.
func (tab *tabulation) symmetryErr(im *program.Implementation) error {
	if err := declaredSymmetryErr(im); err != nil {
		return err
	}
	if !tab.portFree {
		return fmt.Errorf("%w: an object of %s answers differently on different ports", ErrNotSymmetric, im.Name)
	}
	if len(tab.machTabs) == 0 {
		return fmt.Errorf("%w: %s has no processes to permute", ErrNotSymmetric, im.Name)
	}
	for p := 1; p < len(tab.machTabs); p++ {
		if !bytes.Equal(tab.machTabs[0], tab.machTabs[p]) {
			return fmt.Errorf("%w: machines 0 and %d of %s tabulate differently", ErrNotSymmetric, p, im.Name)
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
// equivalent iff their proposal vectors have equal multisets, that is,
// equal count vectors. The count vector's canonical vector — its values in
// non-increasing order — is the orbit's minimal mask, since
// ProposalVectorK weights digit p by k^p, and it keys the orbit: iterating
// masks in ascending order meets each orbit first at that mask, so orbits
// come out ordered by representative mask, each member after its
// representative. No map or string is built per mask.
func computeOrbits(procs, k, roots int) []orbit {
	// orbitOf[rep] is 1 + the index of the orbit represented by rep.
	orbitOf := make([]int32, roots)
	var orbits []orbit
	vec := make([]int, procs)
	canon := make([]int, procs)
	perms := make([]int, 0, roots*procs) // one backing array for every member's perm
	for mask := 0; mask < roots; mask++ {
		m := mask
		for p := range vec {
			vec[p] = m % k
			m /= k
		}
		copy(canon, vec)
		slices.Sort(canon)
		slices.Reverse(canon)
		rep := 0
		for p := procs - 1; p >= 0; p-- {
			rep = rep*k + canon[p]
		}
		if rep == mask {
			orbitOf[mask] = int32(len(orbits) + 1)
			orbits = append(orbits, orbit{rep: mask})
			continue
		}
		ob := &orbits[orbitOf[rep]-1]
		n := len(perms)
		perms = appendMatchPerm(perms, vec, canon)
		ob.members = append(ob.members, orbitMember{mask: mask, perm: perms[n:len(perms):len(perms)]})
	}
	return orbits
}

// appendMatchPerm appends perm with member[p] == rep[perm[p]] to dst,
// assigning equal values by ascending position on both sides: the j-th
// process proposing v in member plays the j-th process proposing v in
// rep. Any consistent assignment is sound: processes proposing equal
// values are behaviorally identical under a symmetric implementation, so
// their roles are interchangeable.
func appendMatchPerm(dst, member, rep []int) []int {
	for p, v := range member {
		j := 0 // earlier processes of member proposing v
		for _, u := range member[:p] {
			if u == v {
				j++
			}
		}
		for q, u := range rep {
			if u == v {
				if j == 0 {
					dst = append(dst, q)
					break
				}
				j--
			}
		}
	}
	return dst
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

// certStatesPerTree scales the certificate's tabulation budget with the
// run: roots trees allow certStatesPerTree*roots states per object and
// machine, never fewer than canonStates. A state costs a step per port and
// invocation, and each skipped tree has a node per process, so the
// certificate costs a constant multiple of the work it saves. The n-process
// fetch-and-cons and augmented-queue objects (2^(n+1)-1 states) fit up to
// the 20 processes MaxTrees admits for binary runs, past the cache key's
// budget.
const certStatesPerTree = 4

// planOrbits decides whether the run may be symmetry-reduced and returns
// its work plan: true orbits (reduced=true) when reduction applies, one
// singleton orbit per mask otherwise. The cheap refusals come first; only
// then is the implementation tabulated over the propose invocations
// 0..k-1, and a tabulation that fails (ErrUncanonical included) is a
// refusal too. SymmetryRequire surfaces the refusal as an error wrapping
// ErrNotSymmetric; SymmetryAuto falls back silently.
func planOrbits(im *program.Implementation, k, roots int, opts Options) (orbits []orbit, reduced bool, err error) {
	if opts.Symmetry == SymmetryOff {
		return singletonOrbits(roots), false, nil
	}
	reason := symmetryReason(im, k, roots, opts)
	if reason == nil {
		return computeOrbits(im.Procs, k, roots), true, nil
	}
	if opts.Symmetry == SymmetryRequire {
		return nil, false, reason
	}
	return singletonOrbits(roots), false, nil
}

// symmetryReason explains why a k-valued run of im over roots trees cannot
// be reduced, or returns nil.
func symmetryReason(im *program.Implementation, k, roots int, opts Options) error {
	if opts.MemoBudget > 0 {
		// Budgeted memo eviction is triggered by traversal order, and a
		// member tree traverses its (isomorphic) configurations in permuted
		// order, so replayed MemoHits could drift from what an unreduced
		// run would count. Every other aggregate is order-invariant; see
		// the replayTree comment.
		return fmt.Errorf("%w: MemoBudget eviction is traversal-order dependent", ErrNotSymmetric)
	}
	if err := declaredSymmetryErr(im); err != nil {
		return err
	}
	starts := make([]types.Invocation, k)
	for v := range starts {
		starts[v] = types.Propose(v)
	}
	tab, err := tabulate(im, starts, max(canonStates, certStatesPerTree*roots), true)
	if err != nil {
		return fmt.Errorf("%w: %s cannot be tabulated: %w", ErrNotSymmetric, im.Name, err)
	}
	return tab.symmetryErr(im)
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
