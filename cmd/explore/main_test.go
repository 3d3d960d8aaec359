package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCorrectProtocols(t *testing.T) {
	for _, name := range []string{"tas", "queue", "cas", "sticky", "augqueue", "fetchcons", "weakleader", "noisysticky"} {
		if err := run([]string{"-protocol", name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunNaiveFails(t *testing.T) {
	if err := run([]string{"-protocol", "naive"}); err == nil {
		t.Fatal("broken protocol reported correct")
	}
}

func TestRunValencyAndDot(t *testing.T) {
	if err := run([]string{"-protocol", "tas", "-valency"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-protocol", "cas", "-dot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	if err := run([]string{"-protocol", "ghost"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunSharedFlags(t *testing.T) {
	if err := run([]string{"-protocol", "tas", "-json", "-parallel", "2", "-progress", "1ms"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-protocol", "casregister3", "-timeout", "1ns"}); err == nil {
		t.Fatal("expired deadline not reported")
	}
}

// TestRunCrashRecovery drives -fault-mode crash-recovery at the CLI
// layer: an election protocol survives a crash/recover budget, the
// register-only naive protocol is refuted with a recovery-annotated
// counterexample, and a recovery budget without the mode is rejected by
// the engine's model validation instead of being silently ignored.
func TestRunCrashRecovery(t *testing.T) {
	crashRecovery := []string{"-memoize", "-faults", "-max-crashes", "1",
		"-fault-mode", "crash-recovery", "-max-recoveries", "1"}
	if err := run(append([]string{"-protocol", "tas"}, crashRecovery...)); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-protocol", "naive"}, crashRecovery...)); err == nil {
		t.Fatal("naive survived crash-recovery checking")
	}
	if err := run([]string{"-protocol", "tas", "-faults", "-max-crashes", "1",
		"-max-recoveries", "1"}); err == nil {
		t.Fatal("-max-recoveries accepted outside -fault-mode crash-recovery")
	}
}

// TestRunPartialThenResume drives the durable-runs loop end to end at the
// CLI layer: a -max-nodes run stops with partial coverage and a saved
// checkpoint, and rerunning the same command without the budget resumes
// it to a clean verdict.
func TestRunPartialThenResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp")
	err := run([]string{"-protocol", "casregister3", "-memoize", "-parallel", "1",
		"-max-nodes", "500", "-checkpoint", cp})
	if err == nil || !strings.Contains(err.Error(), "partial coverage") {
		t.Fatalf("budgeted run: err = %v, want partial-coverage error", err)
	}
	if _, serr := os.Stat(cp); serr != nil {
		t.Fatalf("partial run saved no checkpoint: %v", serr)
	}
	if err := run([]string{"-protocol", "casregister3", "-memoize", "-parallel", "1",
		"-checkpoint", cp}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, serr := os.Stat(cp); !os.IsNotExist(serr) {
		t.Errorf("completed resume left a stale checkpoint: %v", serr)
	}
}

// TestRunDurabilityFlagValidation pins the -checkpoint-every usage error
// and that a valid autosave configuration runs cleanly.
func TestRunDurabilityFlagValidation(t *testing.T) {
	if err := run([]string{"-protocol", "tas", "-checkpoint-every", "1s"}); err == nil {
		t.Fatal("-checkpoint-every accepted without -checkpoint")
	}
	cp := filepath.Join(t.TempDir(), "cp")
	if err := run([]string{"-protocol", "tas", "-checkpoint", cp, "-checkpoint-every", "1ms"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFlagSet pins the shared flags explore registers: each one its
// pipeline reads parses, and -seed, which no pipeline reads, is refused at
// parse time. Every run carries -timeout=1ns so that a flag that parses
// stops at once. -dot refuses, by name, every shared flag set with it (it
// exits before reading any), and -valency refuses -json (it has no JSON
// form).
func TestRunFlagSet(t *testing.T) {
	dir := t.TempDir()
	kept := []string{"-timeout=1ns", "-json", "-cache=" + dir, "-parallel=1",
		"-progress=1ms", "-faults", "-max-crashes=1", "-fault-mode=crash-stop",
		"-max-recoveries=0", "-symmetry=auto", "-stall-after=1m", "-max-nodes=100", "-memo-budget=100",
		"-memo-spill=" + dir,
		"-checkpoint=" + filepath.Join(dir, "cp"), "-checkpoint-every=1s"}
	refused := []string{"-seed=9"}
	for _, arg := range kept {
		if err := run([]string{"-protocol=casregister3", arg, "-timeout=1ns"}); parseFailed(err) {
			t.Errorf("%s: %v", arg, err)
		}
	}
	for _, arg := range refused {
		if err := run([]string{"-protocol=casregister3", arg, "-timeout=1ns"}); !refusedAtParse(err) {
			t.Errorf("%s: err = %v, want a flag-parse error", arg, err)
		}
	}
	for _, arg := range kept {
		name, _, _ := strings.Cut(arg, "=")
		err := run([]string{"-protocol=cas", "-dot", arg})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("-dot %s: err = %v, want a refusal naming %s", arg, err, name)
		}
	}
	if err := run([]string{"-protocol=tas", "-valency", "-json"}); err == nil || !strings.Contains(err.Error(), "-json") {
		t.Errorf("-valency -json: err = %v, want a refusal naming -json", err)
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
