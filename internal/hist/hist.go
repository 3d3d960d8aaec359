// Package hist represents concurrent histories of operations on a single
// shared object: the input to the linearizability checker (package
// linearize) and the output of the execution-tree explorer (package
// explore), recorded at every leaf of an explored tree and along every
// seeded walk (explore.Walk).
//
// A history is a set of operations, each with an invocation, a response,
// the port it used, and a real-time interval [Begin, End] on a global
// logical clock. Operation A precedes operation B iff A.End < B.Begin;
// otherwise they are concurrent. Linearizability (Herlihy and Wing 1990)
// requires a total order of the operations, consistent with precedence,
// that is a legal sequential history of the object's type.
package hist

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"waitfree/internal/types"
)

// Pending marks the End of an operation that has not yet returned.
const Pending = -1

// Op is one operation of a concurrent history.
type Op struct {
	Proc  int
	Port  int
	Inv   types.Invocation
	Resp  types.Response
	Begin int
	End   int // Pending if the operation never returned
}

// Precedes reports whether o completed before p began.
func (o Op) Precedes(p Op) bool { return o.End != Pending && o.End < p.Begin }

// Complete reports whether the operation returned.
func (o Op) Complete() bool { return o.End != Pending }

// String renders the operation for diagnostics.
func (o Op) String() string {
	end := "?"
	if o.Complete() {
		end = fmt.Sprintf("%d", o.End)
	}
	return fmt.Sprintf("p%d[%d,%s] %v->%v", o.Proc, o.Begin, end, o.Inv, o.Resp)
}

// History is a concurrent history of one object.
type History []Op

// String renders the history sorted by Begin for diagnostics.
func (h History) String() string {
	sorted := append(History(nil), h...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Begin < sorted[j].Begin })
	parts := make([]string, len(sorted))
	for i, op := range sorted {
		parts[i] = op.String()
	}
	return strings.Join(parts, "; ")
}

// Errors reported by Validate.
var (
	ErrBadInterval = errors.New("hist: operation interval invalid")
	ErrOverlapSelf = errors.New("hist: operations of one process overlap")
)

// Validate checks well-formedness: intervals are ordered, and each
// process's operations are sequential (a process has at most one operation
// outstanding at a time).
func (h History) Validate() error {
	byProc := make(map[int][]Op)
	for _, op := range h {
		if op.Complete() && op.End < op.Begin {
			return fmt.Errorf("%w: %v", ErrBadInterval, op)
		}
		byProc[op.Proc] = append(byProc[op.Proc], op)
	}
	for proc, ops := range byProc {
		sort.Slice(ops, func(i, j int) bool { return ops[i].Begin < ops[j].Begin })
		for i := 1; i < len(ops); i++ {
			prev := ops[i-1]
			if !prev.Complete() || prev.End >= ops[i].Begin {
				return fmt.Errorf("%w: process %d: %v then %v", ErrOverlapSelf, proc, prev, ops[i])
			}
		}
	}
	return nil
}

// Complete returns the subhistory of completed operations.
func (h History) Complete() History {
	out := make(History, 0, len(h))
	for _, op := range h {
		if op.Complete() {
			out = append(out, op)
		}
	}
	return out
}
