// Package experiments is the reproduction harness: it re-derives, as
// machine-checked tables, every result of Bazzi, Neiger, and Peterson
// (PODC 1994). The paper is pure theory — it has no empirical tables or
// figures — so the reproduction targets are its numbered constructions and
// theorems, one experiment each (E1-E9, indexed in DESIGN.md). Each
// experiment returns a Table whose rows are computed by exhaustive
// exploration or by seeded walks of the same machines, never asserted;
// EXPERIMENTS.md embeds the generated output.
package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	PaperClaim string     `json:"paper_claim"`
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	// Expectation is the "shape" DESIGN.md predicts for this experiment.
	Expectation string `json:"expectation"`
	// Verdict summarizes whether the computed rows bear the claim out.
	Verdict string `json:"verdict"`
}

// Failed reports whether the verdict indicates a reproduction failure.
func (t *Table) Failed() bool { return strings.HasPrefix(t.Verdict, "FAILED") }

// Markdown renders tables as a GitHub-flavored Markdown document body.
func Markdown(tables []*Table) string {
	var b strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&b, "## %s — %s\n\n", t.ID, t.Title)
		fmt.Fprintf(&b, "**Paper claim.** %s\n\n", t.PaperClaim)
		fmt.Fprintf(&b, "**Expected shape.** %s\n\n", t.Expectation)
		fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
		seps := make([]string, len(t.Columns))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(&b, "|%s|\n", strings.Join(seps, "|"))
		for _, row := range t.Rows {
			fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
		}
		fmt.Fprintf(&b, "\n**Measured verdict.** %s\n\n", t.Verdict)
	}
	return b.String()
}

// runners lists every experiment in order. Each passes ctx to the engines
// it calls, so cancellation or a deadline stops any of them promptly.
var runners = []struct {
	id  string
	run func(context.Context) (*Table, error)
}{
	{"E1", E1}, {"E2", E2}, {"E3", E3}, {"E4", E4}, {"E5", E5}, {"E6", E6},
	{"E7", E7}, {"E8", E8}, {"E9", E9}, {"E10", E10}, {"E11", E11},
}

// AllContext runs every experiment in order under ctx: it checks ctx
// between experiments, and each experiment checks it inside.
// Cancellation returns the tables finished so far alongside an error
// wrapping ctx.Err().
func AllContext(ctx context.Context) ([]*Table, error) {
	tables := make([]*Table, 0, len(runners))
	for _, r := range runners {
		if err := ctx.Err(); err != nil {
			return tables, err
		}
		t, err := r.run(ctx)
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// RunOne runs the single experiment named id (E1..E11).
func RunOne(ctx context.Context, id string) (*Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range runners {
		if r.id == id {
			return r.run(ctx)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}

// verdict builds a REPRODUCED/FAILED verdict string.
func verdict(ok bool, detail string) string {
	if ok {
		return "REPRODUCED — " + detail
	}
	return "FAILED — " + detail
}

func yn(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
