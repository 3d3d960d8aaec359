package explore

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"waitfree/internal/faults"
	"waitfree/internal/program"
)

// This file implements checkpoint/resume for the consensus engines. A
// consensus check is a set of independent proposal-vector trees merged in
// mask order; its natural frontier state is simply "which trees are fully
// explored, and what did each contribute". A cancelled ConsensusKContext
// snapshots exactly that into a JSON-serializable Checkpoint, and a later
// run resumes by merging the stored per-tree results instead of
// re-exploring them. Because each tree's result is a pure function of the
// implementation, a resumed run reaches the same report as an
// uninterrupted one.
//
// Checkpoints are symmetry-agnostic in both directions: a tree result is
// the same whether the tree was explored or replayed from its orbit
// representative, so a checkpoint written under Options.Symmetry resumes
// cleanly without it and vice versa. A symmetry-reduced resume replays
// missing orbit members from any preloaded sibling (see ConsensusKContext).

// CheckpointVersion is the serialization version stamped into every
// Checkpoint; resuming from a different version is rejected.
const CheckpointVersion = 1

// ErrBadCheckpoint is the sentinel wrapped when Options.ResumeFrom does
// not match the run it is offered to (different implementation, proposal
// range, process count, or fault model) or is malformed.
var ErrBadCheckpoint = errors.New("explore: checkpoint does not match this run")

// TreeResult is one proposal-vector tree's contribution to a consensus
// report: its counters, access bounds, and decided values. It is the
// engine's one per-tree record: every explored, replayed, or resumed tree
// carries one, and a Checkpoint stores those of the fully explored,
// violation-free trees.
type TreeResult struct {
	// Mask identifies the tree's proposal vector (ProposalVectorK order).
	Mask      int              `json:"mask"`
	Nodes     int64            `json:"nodes"`
	Leaves    int64            `json:"leaves"`
	MemoHits  int64            `json:"memo_hits"`
	Depth     int              `json:"depth"`
	MaxAccess []int            `json:"max_access"`
	OpAccess  []map[string]int `json:"op_access"`
	ProcSteps []int            `json:"proc_steps"`
	// Decided lists the values decided in at least one execution of this
	// tree, sorted.
	Decided  []int `json:"decided"`
	Degraded bool  `json:"degraded,omitempty"`
}

// Checkpoint is the frontier snapshot of a cancelled consensus
// exploration: enough state to resume the run where it stopped. It is
// JSON-serializable end to end (the CLIs' -checkpoint flag round-trips it
// through a file).
type Checkpoint struct {
	// Version is CheckpointVersion at snapshot time.
	Version int `json:"version"`
	// Impl fingerprints the implementation by name; Procs, Values, and
	// Roots pin the run's shape. Resume validates all four.
	Impl   string `json:"impl"`
	Procs  int    `json:"procs"`
	Values int    `json:"values"`
	Roots  int    `json:"roots"`
	// Faults is the fault model the trees were explored under; resuming
	// under a different model would merge incomparable tree results.
	Faults faults.Model `json:"faults"`
	// Trees holds the fully explored trees, in mask order.
	Trees []TreeResult `json:"trees"`
}

// Remaining reports how many trees are left to explore. A malformed
// checkpoint can claim more trees than roots; Remaining clamps to zero so
// progress arithmetic (ETA bars, "N trees left" messages) never goes
// negative — validateFor rejects such a checkpoint before it is resumed.
func (c *Checkpoint) Remaining() int {
	if r := c.Roots - len(c.Trees); r > 0 {
		return r
	}
	return 0
}

// String renders a one-line progress summary.
func (c *Checkpoint) String() string {
	return fmt.Sprintf("checkpoint: %s procs=%d values=%d trees %d/%d done",
		c.Impl, c.Procs, c.Values, len(c.Trees), c.Roots)
}

// validateFor checks that the checkpoint belongs to this exact run shape
// and that every tree in it could have come from an exploration: bounds of
// the right shape, counts an exploration could write (explored), and valid
// decisions.
func (c *Checkpoint) validateFor(im *program.Implementation, k, roots int, model faults.Model) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, c.Version, CheckpointVersion)
	}
	if c.Impl != im.Name {
		return fmt.Errorf("%w: implementation %q, want %q", ErrBadCheckpoint, c.Impl, im.Name)
	}
	if c.Procs != im.Procs || c.Values != k || c.Roots != roots {
		return fmt.Errorf("%w: shape procs=%d values=%d roots=%d, want procs=%d values=%d roots=%d",
			ErrBadCheckpoint, c.Procs, c.Values, c.Roots, im.Procs, k, roots)
	}
	if c.Faults != model {
		return fmt.Errorf("%w: fault model %v, want %v", ErrBadCheckpoint, c.Faults, model)
	}
	if len(c.Trees) > c.Roots {
		return fmt.Errorf("%w: %d trees recorded for %d roots", ErrBadCheckpoint, len(c.Trees), c.Roots)
	}
	seen := make(map[int]bool, len(c.Trees))
	for i := range c.Trees {
		tr := &c.Trees[i]
		if tr.Mask < 0 || tr.Mask >= roots {
			return fmt.Errorf("%w: tree mask %d out of range [0,%d)", ErrBadCheckpoint, tr.Mask, roots)
		}
		if seen[tr.Mask] {
			return fmt.Errorf("%w: duplicate tree mask %d", ErrBadCheckpoint, tr.Mask)
		}
		seen[tr.Mask] = true
		if len(tr.MaxAccess) != len(im.Objects) || len(tr.OpAccess) != len(im.Objects) || len(tr.ProcSteps) != im.Procs {
			return fmt.Errorf("%w: tree %d has mismatched bound shapes", ErrBadCheckpoint, tr.Mask)
		}
		if !tr.explored() {
			return fmt.Errorf("%w: tree %d has a negative or missing counter, bound or decision", ErrBadCheckpoint, tr.Mask)
		}
		// A checkpointed tree is violation-free, so its decisions are valid:
		// drawn from its own proposal vector, and sorted without repeats.
		proposals := ProposalVectorK(tr.Mask, im.Procs, k)
		for i, v := range tr.Decided {
			if (i > 0 && v <= tr.Decided[i-1]) || !slices.Contains(proposals, v) {
				return fmt.Errorf("%w: tree %d decided %v, not increasing values from proposals %v",
					ErrBadCheckpoint, tr.Mask, tr.Decided, proposals)
			}
		}
	}
	return nil
}

// explored reports whether an exploration could have written the tree: no
// counter or bound is negative, it entered its root and reached a leaf, it
// wrote a map per object (an empty one included), and it decided at its
// fault-free leaf.
func (tr *TreeResult) explored() bool {
	bounds := slices.Concat([]int{tr.Depth}, tr.MaxAccess, tr.ProcSteps)
	for _, ops := range tr.OpAccess {
		if ops == nil {
			return false
		}
		for _, v := range ops {
			bounds = append(bounds, v)
		}
	}
	return tr.Nodes >= 1 && tr.Leaves >= 1 && tr.MemoHits >= 0 && slices.Min(bounds) >= 0 && len(tr.Decided) > 0
}

// clone deep-copies the tree for a Checkpoint leaving the engine. Inside
// the engine a tree's slices and maps are shared with its orbit's replayed
// trees and with the checkpoint it was resumed from; the copy keeps a
// published Checkpoint unaliased. Its nil and empty slices and maps match
// what the encoded form has always carried, so checkpoint bytes are stable.
func (tr *TreeResult) clone() TreeResult {
	c := *tr
	c.MaxAccess = append([]int(nil), tr.MaxAccess...)
	c.OpAccess = make([]map[string]int, len(tr.OpAccess))
	for o, ops := range tr.OpAccess {
		c.OpAccess[o] = make(map[string]int, len(ops))
		for op, v := range ops {
			c.OpAccess[o][op] = v
		}
	}
	c.ProcSteps = append([]int(nil), tr.ProcSteps...)
	c.Decided = append([]int(nil), tr.Decided...)
	return c
}

// buildCheckpoint snapshots every fully explored, violation-free tree
// (including ones preloaded from a previous checkpoint, so resuming twice
// keeps accumulating). done gates the reads: outcomes[mask] is only
// touched after done[mask] observes true, so the autosave supervisor can
// snapshot concurrently with running workers without racing their stores.
func buildCheckpoint(im *program.Implementation, k, roots int, model faults.Model, outcomes []treeOutcome, done []atomic.Bool) *Checkpoint {
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Impl:    im.Name,
		Procs:   im.Procs,
		Values:  k,
		Roots:   roots,
		Faults:  model,
	}
	for mask := range outcomes {
		if !done[mask].Load() {
			continue
		}
		out := &outcomes[mask]
		if out.err != nil || out.violation != nil {
			continue
		}
		cp.Trees = append(cp.Trees, out.TreeResult.clone())
	}
	return cp
}
