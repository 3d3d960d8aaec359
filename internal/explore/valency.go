package explore

import (
	"fmt"
	"math/bits"
	"sort"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file implements valency analysis — the FLP/Herlihy machinery that
// underlies both the impossibility of consensus from registers (cited in
// the paper's Theorem 5 proof for the trivial case) and the assignment of
// consensus numbers. A configuration's valency is the set of decision
// values reachable from it; a configuration is bivalent if more than one
// value remains reachable and univalent otherwise. In a correct wait-free
// protocol, every path from a bivalent initial configuration passes a
// CRITICAL configuration — a bivalent configuration all of whose children
// are univalent — and the classic case analysis shows the pending steps
// there must be on a single object whose type is strong enough to
// arbitrate (a test-and-set, queue, CAS, ..., never a register).

// PendingStep describes one process's next object access at a
// configuration.
type PendingStep struct {
	Proc int
	Obj  int
	Inv  types.Invocation
}

// CriticalConfig is one critical configuration found by the analysis.
type CriticalConfig struct {
	// Pending lists each live process's poised access.
	Pending []PendingStep
	// ChildValency[i] is the valency mask of the configuration reached by
	// scheduling Pending[i] (a bitmask over decision values; one bit set).
	ChildValency []uint64
	// SameObject reports whether all pending accesses target one object.
	SameObject bool
	// Obj is that object's index when SameObject (else -1).
	Obj int
}

// ValencyReport aggregates the analysis of one execution tree.
type ValencyReport struct {
	// Proposals is the analyzed proposal vector.
	Proposals []int
	// Configs counts distinct configurations; Bivalent and Univalent
	// partition them (excluding leaves, which are decided).
	Configs   int
	Bivalent  int
	Univalent int
	// InitialBivalent reports whether the root is bivalent.
	InitialBivalent bool
	// InitialValency is the root's valency mask.
	InitialValency uint64
	// Critical lists the critical configurations (deduplicated).
	Critical []CriticalConfig
	// CriticalObjects names the object indices arbitrating at critical
	// configurations (sorted, deduplicated).
	CriticalObjects []int
}

// ValencySet decodes a valency mask into sorted decision values.
func ValencySet(mask uint64) []int {
	vals := make([]int, 0, bits.OnesCount64(mask))
	for v := 0; v < 64; v++ {
		if mask&(1<<uint(v)) != 0 {
			vals = append(vals, v)
		}
	}
	return vals
}

// Valency analyzes the execution tree of a consensus implementation from
// one proposal vector, without faults or symmetry reduction. Decision
// values must lie in 0..63.
func Valency(im *program.Implementation, proposals []int) (*ValencyReport, error) {
	e, root, err := newExplorer(im, consensusScripts(proposals), Options{})
	if err != nil {
		return nil, err
	}
	v := &valencyAnalysis{e: e, memo: make(map[string]uint64), seenCrit: make(map[string]bool)}
	rootMask, err := v.valency(root, 0)
	if err != nil {
		return nil, err
	}
	report := &ValencyReport{
		Proposals:       append([]int(nil), proposals...),
		Configs:         len(v.memo),
		Bivalent:        v.bivalent,
		Univalent:       v.univalent,
		InitialBivalent: bits.OnesCount64(rootMask) > 1,
		InitialValency:  rootMask,
		Critical:        v.critical,
	}
	objs := make(map[int]bool)
	for _, c := range report.Critical {
		if c.SameObject {
			objs[c.Obj] = true
		}
	}
	for o := range objs {
		report.CriticalObjects = append(report.CriticalObjects, o)
	}
	sort.Ints(report.CriticalObjects)
	return report, nil
}

type valencyAnalysis struct {
	e         *explorer
	memo      map[string]uint64
	seenCrit  map[string]bool
	bivalent  int
	univalent int
	critical  []CriticalConfig
}

// valency computes the reachable-decision mask of a configuration by
// post-order traversal with memoization, collecting critical
// configurations along the way.
func (v *valencyAnalysis) valency(c *config, depth int) (uint64, error) {
	if depth > v.e.opts.MaxDepth {
		return 0, fmt.Errorf("explore: valency analysis exceeded %d steps (not wait-free?)", v.e.opts.MaxDepth)
	}
	allDone := true
	for _, id := range c.procs {
		if !v.e.proc(id).Done {
			allDone = false
			break
		}
	}
	if allDone {
		// Leaf: all processes decided; agreement gives a single value.
		val := v.e.proc(c.procs[0]).Resp.Val
		if val < 0 || val > 63 {
			return 0, fmt.Errorf("explore: decision %d outside 0..63", val)
		}
		return 1 << uint(val), nil
	}
	key := string(v.e.idKey(c))
	if mask, ok := v.memo[key]; ok {
		return mask, nil
	}

	var mask uint64
	var pending []PendingStep
	var childMasks []uint64
	for p, id := range c.procs {
		if v.e.proc(id).Done {
			continue
		}
		act := v.e.proc(id).Pending
		pending = append(pending, PendingStep{Proc: p, Obj: act.Obj, Inv: act.Inv})
		inv := v.e.pendingInv(c, p)
		cts, err := v.e.applyCached(c, p, act.Obj, inv)
		if err != nil {
			return 0, err
		}
		var childMask uint64
		for _, t := range cts {
			err := v.e.walkChild(c, p, act.Obj, t, func() error {
				m, err := v.valency(c, depth+1)
				childMask |= m
				return err
			})
			if err != nil {
				return 0, err
			}
		}
		childMasks = append(childMasks, childMask)
		mask |= childMask
	}

	v.memo[key] = mask
	if bits.OnesCount64(mask) > 1 {
		v.bivalent++
		// Critical iff every child is univalent.
		critical := true
		for _, m := range childMasks {
			if bits.OnesCount64(m) > 1 {
				critical = false
				break
			}
		}
		if critical && !v.seenCrit[key] {
			v.seenCrit[key] = true
			cc := CriticalConfig{
				Pending:      pending,
				ChildValency: childMasks,
				Obj:          -1,
				SameObject:   true,
			}
			for i, ps := range pending {
				if i == 0 {
					cc.Obj = ps.Obj
				} else if ps.Obj != cc.Obj {
					cc.SameObject = false
					cc.Obj = -1
					break
				}
			}
			v.critical = append(v.critical, cc)
		}
	} else {
		v.univalent++
	}
	return mask, nil
}
