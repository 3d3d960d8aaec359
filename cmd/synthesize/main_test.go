package main

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"waitfree/internal/synth"
)

func TestRunFindsProtocol(t *testing.T) {
	if err := run([]string{"-objects", "cas", "-depth", "1", "-symmetric"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-objects", "sticky", "-depth", "2", "-symmetric"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRefutes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search")
	}
	if err := run([]string{"-objects", "tas", "-depth", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBudget(t *testing.T) {
	if err := run([]string{"-objects", "tas+bits", "-depth", "3", "-budget", "100"}); err != nil {
		t.Fatal(err) // budget exhaustion is reported, not an error
	}
}

// TestRunDefaultBudgetIsDaemons pins -budget's default to the wire job's
// (synth.DefaultBudget): a run with the flag left out and one naming that
// budget are the same request, so the second is a cache hit and the
// cache holds one entry.
func TestRunDefaultBudgetIsDaemons(t *testing.T) {
	dir := t.TempDir()
	for _, extra := range [][]string{nil, {"-budget", strconv.FormatInt(synth.DefaultBudget, 10)}} {
		args := append([]string{"-objects", "cas", "-depth", "1", "-symmetric", "-json", "-cache", dir}, extra...)
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.wfres"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d cache entries, want 1: the default budget is not synth.DefaultBudget", len(entries))
	}
}

func TestRunUnknownSet(t *testing.T) {
	if err := run([]string{"-objects", "ghost"}); err == nil {
		t.Fatal("unknown object set accepted")
	}
}

func TestRunSharedFlags(t *testing.T) {
	if err := run([]string{"-objects", "cas", "-depth", "1", "-symmetric", "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-objects", "tas", "-depth", "3", "-timeout", "1ns"}); err == nil {
		t.Fatal("expired deadline not reported")
	}
}

// TestRunFlagSet pins the shared flags synthesize registers: the output
// and engine groups parse, and -seed and the checkpoint group, which it
// never reads, are refused at parse time. Every run carries -timeout=1ns
// so that a flag that parses stops at once.
func TestRunFlagSet(t *testing.T) {
	dir := t.TempDir()
	kept := []string{"-timeout=1ns", "-json", "-cache=" + dir, "-parallel=1",
		"-progress=1ms", "-faults", "-max-crashes=1", "-fault-mode=crash-stop",
		"-max-recoveries=0", "-symmetry=auto", "-stall-after=1m", "-max-nodes=100", "-memo-budget=100",
		"-memo-spill=" + dir}
	refused := []string{"-seed=9", "-checkpoint=" + filepath.Join(dir, "cp"), "-checkpoint-every=1s"}
	for _, arg := range kept {
		if err := run([]string{"-objects=tas", arg, "-timeout=1ns"}); parseFailed(err) {
			t.Errorf("%s: %v", arg, err)
		}
	}
	for _, arg := range refused {
		if err := run([]string{"-objects=tas", arg, "-timeout=1ns"}); !refusedAtParse(err) {
			t.Errorf("%s: err = %v, want a flag-parse error", arg, err)
		}
	}
}

// refusedAtParse reports whether err is the flag package's refusal of a
// flag the command does not define.
func refusedAtParse(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "flag provided but not defined")
}

// parseFailed reports whether err is any flag-parse error.
func parseFailed(err error) bool {
	return refusedAtParse(err) || err != nil && strings.HasPrefix(err.Error(), "invalid ")
}
