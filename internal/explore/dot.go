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
// The tree is the fault-free one, without symmetry reduction.
func Dot(im *program.Implementation, scripts [][]types.Invocation, maxNodes int) (string, error) {
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

	allDone := true
	for _, pid := range c.procs {
		if !d.e.proc(pid).Done {
			allDone = false
			break
		}
	}
	if allDone {
		labels := make([]string, len(c.procs))
		for p, pid := range c.procs {
			labels[p] = fmt.Sprintf("p%d:%v", p, d.e.proc(pid).Resp)
		}
		fmt.Fprintf(d.b, "  n%d [shape=doublecircle, label=\"%s\"];\n",
			id, strings.Join(labels, "\\n"))
		return id, nil
	}
	fmt.Fprintf(d.b, "  n%d [label=\"%s\"];\n", id, d.stateLabel(c))

	for p, pid := range c.procs {
		if d.e.proc(pid).Done {
			continue
		}
		act := d.e.proc(pid).Pending
		inv := d.e.pendingInv(c, p)
		cts, err := d.e.applyCached(c, p, act.Obj, inv)
		if err != nil {
			return 0, err
		}
		for _, t := range cts {
			var childID int
			err := d.e.walkChild(c, p, act.Obj, t, func() (err error) {
				childID, err = d.walk(c, depth+1)
				return err
			})
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(d.b, "  n%d -> n%d [label=\"p%d:%s.%v→%v\"];\n",
				id, childID, p, d.e.im.Objects[act.Obj].Name, act.Inv, d.e.resps.vals[t.resp])
		}
	}
	return id, nil
}

// stateLabel renders the object states compactly.
func (d *dotBuilder) stateLabel(c *config) string {
	parts := make([]string, len(c.objs))
	for i, id := range c.objs {
		parts[i] = types.StateKey(d.e.obj(id))
	}
	return strings.Join(parts, ",")
}
