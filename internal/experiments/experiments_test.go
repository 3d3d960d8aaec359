package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"waitfree/internal/explore"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// TestAllExperimentsReproduce runs the full harness: every experiment must
// complete and report REPRODUCED, and EXPERIMENTS.md must embed exactly
// the harness's Markdown between its first rule and its appendices. This
// is the repository's top-level regression test for the paper's results.
func TestAllExperimentsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness")
	}
	tables, err := AllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 11 {
		t.Fatalf("got %d tables, want 11", len(tables))
	}
	for _, table := range tables {
		if table.Failed() {
			t.Errorf("%s (%s): %s", table.ID, table.Title, table.Verdict)
		}
		if len(table.Rows) == 0 {
			t.Errorf("%s: no rows", table.ID)
		}
		for i, row := range table.Rows {
			if len(row) != len(table.Columns) {
				t.Errorf("%s row %d: %d cells for %d columns", table.ID, i, len(row), len(table.Columns))
			}
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const rule, appendix = "\n---\n\n", "---\n\n## Appendix"
	start := strings.Index(string(doc), rule)
	end := strings.Index(string(doc), appendix)
	if start < 0 || end < start {
		t.Fatalf("EXPERIMENTS.md lacks a %q rule before %q", rule, appendix)
	}
	if body, md := string(doc[start+len(rule):end]), Markdown(tables); body != md {
		t.Errorf("EXPERIMENTS.md body differs from the harness output; regenerate it with go run ./cmd/experiments\n%s",
			firstDifference(body, md))
	}
}

// firstDifference reports the first line on which got and want differ.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  document: %s\n  harness:  %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("document has %d lines, harness %d", len(g), len(w))
}

func TestMarkdownRendering(t *testing.T) {
	tables := []*Table{{
		ID:          "EX",
		Title:       "Example",
		PaperClaim:  "claim",
		Expectation: "shape",
		Columns:     []string{"a", "b"},
		Rows:        [][]string{{"1", "2"}},
		Verdict:     "REPRODUCED — fine",
	}}
	md := Markdown(tables)
	for _, want := range []string{"## EX — Example", "| a | b |", "|---|---|", "| 1 | 2 |", "REPRODUCED"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestVerdictHelpers(t *testing.T) {
	if got := verdict(true, "x"); got != "REPRODUCED — x" {
		t.Errorf("verdict(true) = %q", got)
	}
	if got := verdict(false, "x"); got != "FAILED — x" {
		t.Errorf("verdict(false) = %q", got)
	}
	if (&Table{Verdict: "FAILED — x"}).Failed() == false {
		t.Error("Failed() missed a failure")
	}
	if (&Table{Verdict: "REPRODUCED — x"}).Failed() {
		t.Error("Failed() false positive")
	}
	if yn(true) != "yes" || yn(false) != "NO" {
		t.Error("yn broken")
	}
}

// TestE8AdversaryFindsCounterexample pins the E8 counterexample details.
func TestE8AdversaryFindsCounterexample(t *testing.T) {
	table, err := E8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if table.Failed() {
		t.Fatal(table.Verdict)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	if table.Rows[0][3] != "yes" {
		t.Errorf("with-registers agreement = %q", table.Rows[0][3])
	}
	if table.Rows[1][3] != "NO" {
		t.Errorf("without-registers agreement = %q", table.Rows[1][3])
	}
}

// TestTimeoutStopsLongExperiment: a deadline interrupts E11's synthesis
// mid-search instead of waiting for the whole table.
func TestTimeoutStopsLongExperiment(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	_, err := RunOne(ctx, "E11")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("E11 stopped %v after a 1s deadline", took)
	}
}

// TestEveryExperimentHonoursContext: each experiment, run under an
// already-cancelled context, stops with an error wrapping
// context.Canceled instead of computing its table.
func TestEveryExperimentHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range runners {
		if _, err := r.run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.id, err)
		}
	}
}

// TestWalkedLeavesAreTreeLeaves: on E1's exhaustive rows and the three
// smallest E2 layers, every seeded walk ends on a leaf of the explored
// tree of the same scripts — the sampled rows and the exhaustive rows
// share one step semantics.
func TestWalkedLeavesAreTreeLeaves(t *testing.T) {
	type instance struct {
		name    string
		im      *program.Implementation
		scripts [][]types.Invocation
	}
	var cases []instance
	for _, tc := range e1Cases {
		im, scripts := tc.instance()
		cases = append(cases, instance{fmt.Sprintf("E1 r=%d w=%d", tc.r, tc.w), im, scripts})
	}
	for _, l := range RegisterLayers()[:3] {
		cases = append(cases, instance{l.Name, l.Impl, l.Scripts})
	}
	for _, c := range cases {
		walked := make(map[string]int64)
		for seed := int64(0); seed < 50; seed++ {
			w, err := explore.Walk(c.im, c.scripts, explore.Schedule{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			walked[explore.FormatSchedule(w.Schedule)] = seed
		}
		_, err := explore.RunContext(context.Background(), c.im, c.scripts, explore.Options{OnLeaf: func(l *explore.Leaf) error {
			delete(walked, explore.FormatSchedule(l.Schedule()))
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		for path, seed := range walked {
			t.Errorf("%s seed %d: walked path is no leaf of the tree:\n%s", c.name, seed, path)
		}
	}
}
