package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunWitnesses(t *testing.T) {
	if err := run([]string{"-witnesses"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAudit(t *testing.T) {
	if err := run([]string{"-audit"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunSharedFlags(t *testing.T) {
	if err := run([]string{"-json", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-timeout", "1ns"}); err == nil {
		t.Fatal("expired deadline not reported")
	}
}

// TestRunFlagSet pins the shared flags hierarchy registers: the output
// group and -parallel parse, and every other shared flag, which the zoo
// classification never reads, is refused at parse time. Every run carries
// -timeout=1ns so that a flag that parses stops at once.
func TestRunFlagSet(t *testing.T) {
	dir := t.TempDir()
	kept := []string{"-timeout=1ns", "-json", "-cache=" + dir, "-parallel=1"}
	refused := []string{"-seed=9",
		"-progress=1ms", "-faults", "-max-crashes=1", "-fault-mode=crash-stop",
		"-max-recoveries=0", "-symmetry=auto", "-stall-after=1m", "-max-nodes=100", "-memo-budget=100",
		"-memo-spill=" + dir,
		"-checkpoint=" + filepath.Join(dir, "cp"), "-checkpoint-every=1s"}
	for _, arg := range kept {
		if err := run([]string{arg, "-timeout=1ns"}); parseFailed(err) {
			t.Errorf("%s: %v", arg, err)
		}
	}
	for _, arg := range refused {
		if err := run([]string{arg, "-timeout=1ns"}); !refusedAtParse(err) {
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
