package explore

import (
	"errors"
	"fmt"
	"strings"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file renders the Section 4.2 execution trees as Graphviz DOT, so
// the objects the paper reasons about — roots, branching per process,
// leaves with decisions — can be looked at. Intended for small protocols;
// rendering stops at a node budget.

// ErrDotBudget reports a tree larger than the rendering budget.
var ErrDotBudget = errors.New("explore: execution tree exceeds the DOT node budget")

// Dot renders the execution tree of im under the given scripts as a DOT
// digraph with at most maxNodes nodes. Leaves are double circles labeled
// with the processes' final responses; edges are labeled proc:inv->resp.
// The tree is the fault-free one, without symmetry reduction. A panic in a
// type spec or machine is a *faults.PanicError.
func Dot(im *program.Implementation, scripts [][]types.Invocation, maxNodes int) (_ string, err error) {
	var e *explorer
	defer recoverPanic(&e, &err)
	e, root, err := newExplorer(im, scripts, Options{})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("digraph executiontree {\n")
	b.WriteString("  rankdir=TB;\n  node [shape=circle, fontsize=10];\n")
	d := &dotBuilder{e: e, b: &b, budget: maxNodes}
	if _, err := d.walk(root, 0); err != nil {
		return "", err
	}
	b.WriteString("}\n")
	return b.String(), nil
}

type dotBuilder struct {
	e      *explorer
	b      *strings.Builder
	nextID int
	budget int
}

func (d *dotBuilder) walk(c *config, depth int) (int, error) {
	if d.nextID >= d.budget {
		return 0, fmt.Errorf("%w: more than %d nodes", ErrDotBudget, d.budget)
	}
	id := d.nextID
	d.nextID++

	if d.e.tally(c).running == 0 {
		labels := make([]string, len(c.procs))
		for p, pid := range c.procs {
			labels[p] = fmt.Sprintf("p%d:%v", p, d.e.proc(pid).Resp)
		}
		fmt.Fprintf(d.b, "  n%d [shape=doublecircle, label=\"%s\"];\n",
			id, strings.Join(labels, "\\n"))
		return id, nil
	}
	fmt.Fprintf(d.b, "  n%d [label=\"%s\"];\n", id, d.stateLabel(c))

	err := d.e.eachEdge(c, depth, func(p, obj int, inv, resp, _ int32) error {
		childID, err := d.walk(c, depth+1)
		if err != nil {
			return err
		}
		fmt.Fprintf(d.b, "  n%d -> n%d [label=\"p%d:%s.%v→%v\"];\n",
			id, childID, p, d.e.im.Objects[obj].Name, d.e.invs.vals[inv], d.e.resps.vals[resp])
		return nil
	})
	return id, err
}

// stateLabel renders the object states compactly.
func (d *dotBuilder) stateLabel(c *config) string {
	parts := make([]string, len(c.objs))
	for i, id := range c.objs {
		parts[i] = types.StateKey(d.e.obj(id))
	}
	return strings.Join(parts, ",")
}
