package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"waitfree/internal/durable"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
)

func TestRegisterParsesSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs, Output|Engine)
	if err := fs.Parse([]string{"-parallel", "3", "-timeout", "2s", "-progress", "150ms", "-json"}); err != nil {
		t.Fatal(err)
	}
	if f.Parallel != 3 || f.Timeout != 2*time.Second || f.Progress != 150*time.Millisecond || !f.JSON {
		t.Fatalf("parsed %+v", f)
	}
}

// TestRegisterParsesDurabilityFlags is the checkpoint-group test: the
// Checkpoint group adds -checkpoint and -checkpoint-every, and without it
// both are refused at parse time.
func TestRegisterParsesDurabilityFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs, Engine|Checkpoint)
	args := []string{"-checkpoint", "cp", "-checkpoint-every", "30s", "-stall-after", "1m", "-max-nodes", "5000"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if f.Checkpoint != "cp" || f.CheckpointEvery != 30*time.Second || f.StallAfter != time.Minute || f.MaxNodes != 5000 {
		t.Fatalf("parsed %+v", f)
	}
	if err := fs.Parse([]string{"-checkpoint", "cp.json"}); err != nil || f.Checkpoint != "cp.json" {
		t.Fatalf("-checkpoint cp.json: %v, parsed %q", err, f.Checkpoint)
	}

	for _, arg := range []string{"-checkpoint=cp", "-checkpoint-every=30s"} {
		bare := flag.NewFlagSet("y", flag.ContinueOnError)
		bare.SetOutput(io.Discard)
		Register(bare, Output|Engine)
		if err := bare.Parse([]string{arg}); err == nil {
			t.Errorf("%s accepted without the Checkpoint group", arg)
		}
	}
}

func TestContextHonorsTimeout(t *testing.T) {
	f := &Flags{Timeout: time.Nanosecond}
	ctx, cancel := f.Context()
	defer cancel()
	<-ctx.Done()
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}

	g := &Flags{}
	gctx, gcancel := g.Context()
	if gctx.Err() != nil {
		t.Fatalf("no-timeout context already dead: %v", gctx.Err())
	}
	gcancel()
	if !errors.Is(gctx.Err(), context.Canceled) {
		t.Fatalf("cancel did not propagate: %v", gctx.Err())
	}
}

// mustOptions folds f into opts and fails the test on a usage error.
func mustOptions(t *testing.T, f *Flags, opts explore.Options) explore.Options {
	t.Helper()
	out, err := f.Options(opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOptionsFoldsFlags pins the fold of the shared and budget flags.
func TestOptionsFoldsFlags(t *testing.T) {
	f := &Flags{Parallel: 2, Progress: time.Second}
	opts := mustOptions(t, f, explore.Options{Memoize: true})
	if !opts.Memoize || opts.Parallelism != 2 || opts.ProgressInterval != time.Second || opts.OnProgress == nil {
		t.Fatalf("folded %+v", opts)
	}
	bare := mustOptions(t, &Flags{}, explore.Options{})
	if bare.OnProgress != nil || bare.ProgressInterval != 0 {
		t.Fatalf("progress hook installed without -progress: %+v", bare)
	}

	budgets := mustOptions(t, &Flags{MaxNodes: 9000, StallAfter: time.Minute}, explore.Options{})
	if budgets.MaxNodes != 9000 || budgets.StallAfter != time.Minute {
		t.Fatalf("budgets not folded: %+v", budgets)
	}
}

// TestSupervise pins the autosave wiring of Options: -checkpoint-every
// without a -checkpoint file is a usage error, and with one it installs an
// OnCheckpoint hook that durably rewrites the file.
func TestSupervise(t *testing.T) {
	if _, err := (&Flags{CheckpointEvery: time.Second}).Options(explore.Options{}); err == nil {
		t.Fatal("-checkpoint-every accepted without -checkpoint")
	}

	noop, err := (&Flags{Checkpoint: "cp"}).Options(explore.Options{})
	if err != nil || noop.OnCheckpoint != nil || noop.CheckpointEvery != 0 {
		t.Fatalf("autosave armed without -checkpoint-every: %+v, %v", noop, err)
	}

	f := &Flags{Checkpoint: filepath.Join(t.TempDir(), "cp"), CheckpointEvery: time.Second}
	opts, err := f.Options(explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.CheckpointEvery != time.Second || opts.OnCheckpoint == nil {
		t.Fatalf("autosave not armed: %+v", opts)
	}
	want := &explore.Checkpoint{Version: explore.CheckpointVersion, Impl: "x", Procs: 2, Values: 2, Roots: 4}
	opts.OnCheckpoint(want)
	got, err := f.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got.Impl != "x" || got.Roots != 4 {
		t.Fatalf("autosaved checkpoint lost data: %+v", got)
	}
}

func TestRegisterParsesFaultFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs, Engine)
	if err := fs.Parse([]string{"-faults", "-max-crashes", "2", "-fault-mode", "crash-start"}); err != nil {
		t.Fatal(err)
	}
	if !f.Faults || f.MaxCrashes != 2 || f.FaultMode != faults.CrashBeforeFirstStep {
		t.Fatalf("parsed %+v", f)
	}
	opts := mustOptions(t, f, explore.Options{})
	if opts.Faults.MaxCrashes != 2 || opts.Faults.Mode != faults.CrashBeforeFirstStep {
		t.Fatalf("fault model not folded: %+v", opts.Faults)
	}

	// Defaults: faults off, model not folded, even with a crash budget.
	g := Register(flag.NewFlagSet("y", flag.ContinueOnError), Engine)
	if g.Faults || g.MaxCrashes != 1 {
		t.Fatalf("defaults %+v", g)
	}
	if opts := mustOptions(t, g, explore.Options{}); opts.Faults.Enabled() {
		t.Fatalf("fault model folded without -faults: %+v", opts.Faults)
	}

	// A bad mode is a flag-parse error, not a deferred one.
	bad := flag.NewFlagSet("z", flag.ContinueOnError)
	bad.SetOutput(io.Discard)
	Register(bad, Engine)
	if err := bad.Parse([]string{"-fault-mode", "byzantine"}); err == nil {
		t.Fatal("unknown -fault-mode accepted")
	}
}

func TestRegisterParsesRecoveryFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := Register(fs, Engine)
	if err := fs.Parse([]string{"-faults", "-max-crashes", "1", "-fault-mode", "crash-recovery", "-max-recoveries", "2"}); err != nil {
		t.Fatal(err)
	}
	if f.FaultMode != faults.CrashRecovery || f.MaxRecoveries != 2 {
		t.Fatalf("parsed %+v", f)
	}
	opts := mustOptions(t, f, explore.Options{})
	want := faults.Model{MaxCrashes: 1, Mode: faults.CrashRecovery, MaxRecoveries: 2}
	if opts.Faults != want {
		t.Fatalf("fault model not folded: %+v", opts.Faults)
	}
	if err := opts.Faults.Validate(); err != nil {
		t.Fatalf("folded model invalid: %v", err)
	}

	// -max-recoveries outside crash-recovery mode folds into a model the
	// engine rejects: the contradiction surfaces at Validate, not silently.
	g := Register(flag.NewFlagSet("y", flag.ContinueOnError), Engine)
	g.Faults, g.MaxCrashes, g.MaxRecoveries = true, 1, 1
	if err := mustOptions(t, g, explore.Options{}).Faults.Validate(); err == nil {
		t.Fatal("crash-stop model with a recovery budget validated")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	f := &Flags{Checkpoint: filepath.Join(t.TempDir(), "cp.json")}
	if cp, err := f.LoadCheckpoint(); cp != nil || err != nil {
		t.Fatalf("missing file: %v, %v", cp, err)
	}
	want := &explore.Checkpoint{Version: explore.CheckpointVersion, Impl: "x", Procs: 2, Values: 2, Roots: 4}
	if err := f.SaveCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	got, err := f.LoadCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got.Impl != "x" || got.Roots != 4 || got.Version != explore.CheckpointVersion {
		t.Fatalf("round trip lost data: %+v", got)
	}

	if err := os.WriteFile(f.Checkpoint, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadCheckpoint(); !errors.Is(err, durable.ErrCorruptCheckpoint) {
		t.Fatalf("malformed checkpoint: err = %v, want ErrCorruptCheckpoint", err)
	}

	// An empty file is NOT a fresh start: it usually means a crashed
	// non-atomic writer, and silently restarting a long run would lose
	// everything it had saved.
	if err := os.WriteFile(f.Checkpoint, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = f.LoadCheckpoint()
	if !errors.Is(err, durable.ErrCorruptCheckpoint) {
		t.Fatalf("empty checkpoint: err = %v, want ErrCorruptCheckpoint", err)
	}
	var ce *durable.CorruptError
	if !errors.As(err, &ce) || ce.Path != f.Checkpoint {
		t.Fatalf("corrupt error does not carry the path: %v", err)
	}

	// A truncated durable file surfaces the corruption AND the salvageable
	// prefix for commands that opt in.
	if err := f.SaveCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(f.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.Checkpoint, blob[:len(blob)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = f.LoadCheckpoint()
	if !errors.As(err, &ce) {
		t.Fatalf("truncated checkpoint: err = %v, want *durable.CorruptError", err)
	}
	if ce.Salvaged == nil || ce.Salvaged.Impl != "x" {
		t.Fatalf("truncation lost the salvageable header: %+v", ce.Salvaged)
	}

	// Pre-durable checkpoints were bare JSON; they are rejected as corrupt
	// rather than resumed.
	legacy, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.Checkpoint, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := f.LoadCheckpoint(); got != nil || !errors.Is(err, durable.ErrCorruptCheckpoint) {
		t.Fatalf("legacy JSON checkpoint: %+v, %v; want ErrCorruptCheckpoint", got, err)
	}

	// No flag: both directions are no-ops.
	bare := &Flags{}
	if err := bare.SaveCheckpoint(want); err != nil {
		t.Fatal(err)
	}
	if cp, err := bare.LoadCheckpoint(); cp != nil || err != nil {
		t.Fatalf("bare flags: %v, %v", cp, err)
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, map[string]int{"nodes": 7}); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); !strings.Contains(got, `"nodes": 7`) || !strings.HasSuffix(got, "\n") {
		t.Fatalf("wrote %q", got)
	}
}
