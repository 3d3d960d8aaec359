package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/fsx"
)

// sampleCheckpoint builds a representative checkpoint: several trees with
// non-trivial bounds, op-access maps, and decided sets, under a fault
// model, so the round-trip exercises every serialized field.
func sampleCheckpoint(trees int) *explore.Checkpoint {
	cp := &explore.Checkpoint{
		Version: explore.CheckpointVersion,
		Impl:    "sample",
		Procs:   2,
		Values:  2,
		Roots:   4,
		Faults:  faults.Model{MaxCrashes: 1},
	}
	for m := 0; m < trees; m++ {
		cp.Trees = append(cp.Trees, explore.TreeResult{
			Mask:      m,
			Nodes:     100 + int64(m),
			Leaves:    10 + int64(m),
			MemoHits:  int64(m),
			Depth:     5 + m,
			MaxAccess: []int{3, 4},
			OpAccess:  []map[string]int{{"read": 2, "write": 1}, {"tas": 1}},
			ProcSteps: []int{4, 5},
			Decided:   []int{m % 2},
		})
	}
	return cp
}

func TestDurableRoundTrip(t *testing.T) {
	for _, trees := range []int{0, 1, 3} {
		cp := sampleCheckpoint(trees)
		data, err := Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("trees=%d: decode: %v", trees, err)
		}
		if !reflect.DeepEqual(cp, got) {
			t.Errorf("trees=%d: round-trip mismatch\nbefore: %+v\nafter:  %+v", trees, cp, got)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	cp := sampleCheckpoint(3)
	if err := SaveFS(nil, path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Errorf("file round-trip mismatch\nbefore: %+v\nafter:  %+v", cp, got)
	}
	// Overwrite with a different checkpoint: atomic replace, no temp litter.
	if err := SaveFS(nil, path, sampleCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cp" {
		t.Errorf("directory not clean after save: %v", entries)
	}
	got, err = LoadFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees) != 1 {
		t.Errorf("overwrite not visible: %d trees", len(got.Trees))
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := LoadFS(nil, filepath.Join(t.TempDir(), "nope"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestLoadEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFS(nil, path)
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T does not carry *CorruptError", err)
	}
	if ce.Path != path {
		t.Errorf("CorruptError.Path = %q, want %q", ce.Path, path)
	}
	if ce.Salvaged != nil {
		t.Errorf("empty file salvaged %v", ce.Salvaged)
	}
}

// TestLoadLegacyJSON pins the retirement of the pre-durable bare-JSON
// format: a whole or truncated legacy file fails the magic line as
// corrupt, with nothing salvaged (it embeds no checksums to trust).
func TestLoadLegacyJSON(t *testing.T) {
	cp := sampleCheckpoint(2)
	blob, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp")
	for name, data := range map[string][]byte{
		"whole":     append(blob, '\n'),
		"truncated": blob[:len(blob)/2],
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFS(nil, path)
		var ce *CorruptError
		if got != nil || !errors.Is(err, ErrCorruptCheckpoint) || !errors.As(err, &ce) {
			t.Fatalf("%s legacy file: got %v, err = %v, want ErrCorruptCheckpoint", name, got, err)
		}
		if !strings.Contains(ce.Reason, "bad magic") || ce.Salvaged != nil {
			t.Errorf("%s legacy file: reason %q, salvaged %v; want bad magic, nothing salvaged", name, ce.Reason, ce.Salvaged)
		}
	}
}

// TestTruncationSweep is the torn-write acceptance test: a durable file
// truncated at EVERY byte offset must either decode to a valid salvage (a
// prefix of the original trees) inside an ErrCorruptCheckpoint, or be
// rejected outright — never panic, and never decode successfully to
// anything but the full original.
func TestTruncationSweep(t *testing.T) {
	cp := sampleCheckpoint(4)
	data, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off <= len(data); off++ {
		got, err := Decode(data[:off])
		if off == len(data) {
			if err != nil {
				t.Fatalf("full file rejected: %v", err)
			}
			continue
		}
		if err == nil {
			// Only a file missing nothing but trailing newlines may decode
			// cleanly, and then it must be the complete original — anything
			// else is a silent wrong resume.
			if !reflect.DeepEqual(got, cp) {
				t.Fatalf("offset %d: truncated file decoded cleanly to %+v", off, got)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("offset %d: err = %v, want ErrCorruptCheckpoint", off, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("offset %d: err %T carries no *CorruptError", off, err)
		}
		if ce.Salvaged == nil {
			continue
		}
		// Any salvage must be the original header plus a strict prefix of
		// the original trees.
		s := ce.Salvaged
		if s.Version != cp.Version || s.Impl != cp.Impl || s.Procs != cp.Procs ||
			s.Values != cp.Values || s.Roots != cp.Roots || s.Faults != cp.Faults {
			t.Fatalf("offset %d: salvaged header differs: %+v", off, s)
		}
		if len(s.Trees) > len(cp.Trees) {
			t.Fatalf("offset %d: salvaged %d trees from a file with %d", off, len(s.Trees), len(cp.Trees))
		}
		if len(s.Trees) > 0 && !reflect.DeepEqual(s.Trees, cp.Trees[:len(s.Trees)]) {
			t.Fatalf("offset %d: salvaged trees are not a prefix of the original", off)
		}
	}
}

// TestBitFlipSweep flips every byte of the encoding (one at a time) and
// requires every flip to be detected: the per-line and stream checksums
// leave no byte uncovered.
func TestBitFlipSweep(t *testing.T) {
	data, err := Encode(sampleCheckpoint(2))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at offset %d (byte %q) decoded cleanly", off, data[off])
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data, err := Encode(sampleCheckpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	mut := append(append([]byte(nil), data...), []byte("tree deadbeef {}\n")...)
	if _, err := Decode(mut); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("data after end record: err = %v, want ErrCorruptCheckpoint", err)
	}
}

// quickRetry keeps fault-schedule tests fast: same shape as
// fsx.DefaultRetry, millisecond backoff.
var quickRetry = fsx.RetryPolicy{Attempts: 3, Base: time.Millisecond}

func TestSaveRetriesTransientFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	cp := sampleCheckpoint(1)
	data, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}

	// Two transient rename failures: absorbed by the three-attempt policy.
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: 2, Err: syscall.EIO})
	if err := SaveBytesWith(context.Background(), ff, quickRetry, path, data); err != nil {
		t.Fatalf("save with 2 transient failures: %v", err)
	}
	if _, err := LoadFS(nil, path); err != nil {
		t.Fatalf("load after retried save: %v", err)
	}
	if got := ff.CountOf(fsx.OpRename); got != 3 {
		t.Errorf("rename attempted %d times, want 3", got)
	}

	// A rename that fails on every attempt: the policy gives up with an
	// error naming the attempt count.
	ff = fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: -1, Err: syscall.EIO})
	err = SaveBytesWith(context.Background(), ff, quickRetry, path, data)
	if err == nil {
		t.Fatal("save succeeded with a permanently failing rename")
	}
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "attempts") {
		t.Errorf("persistent-failure error = %v", err)
	}
	// The prior good file must be untouched by the failed overwrite.
	if _, err := LoadFS(nil, path); err != nil {
		t.Errorf("failed save clobbered the existing file: %v", err)
	}
}

// A permanent fault (the out-of-space class) must not burn the backoff
// schedule: one attempt, immediate surfacing.
func TestSavePermanentFaultBailsImmediately(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpCreateTemp, Nth: 1, Count: -1, Err: syscall.ENOSPC})
	err := SaveBytesWith(context.Background(), ff, quickRetry, path, []byte("payload"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if got := ff.CountOf(fsx.OpCreateTemp); got != 1 {
		t.Errorf("ENOSPC retried: %d CreateTemp attempts, want 1", got)
	}
}

// A torn write is caught before the rename: the half-written temp file is
// discarded and the retry writes a fresh one, so the destination never
// holds a torn byte.
func TestSaveTornWriteNeverPublishesPartialBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	cp := sampleCheckpoint(3)
	data, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpWrite, Nth: 1, Kind: fsx.FaultTorn, Err: syscall.EIO})
	if err := SaveBytesWith(context.Background(), ff, quickRetry, path, data); err != nil {
		t.Fatalf("save with one torn write: %v", err)
	}
	if _, err := LoadFS(nil, path); err != nil {
		t.Fatalf("load after torn-write retry: %v", err)
	}
	// The discarded temp file must not linger next to the checkpoint.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after torn-write retry, want just the checkpoint", len(entries))
	}
}

// TestSaveBytesContextCancellation pins the cancellable retry: a caller
// shutting down over a failing disk must get out of the backoff schedule
// as soon as its context dies, with an error naming both the cancellation
// and the underlying write failure — and must not wait out the remaining
// backoff (pinned by an hour-long backoff that would hang the test if
// slept).
func TestSaveBytesContextCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: -1, Err: syscall.EIO})
	slow := fsx.RetryPolicy{Attempts: 3, Base: time.Hour}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- SaveBytesWith(ctx, ff, slow, path, []byte("payload")) }()
	// The first attempt fails immediately; the goroutine is now parked in
	// the hour-long backoff. Cancel and require a prompt return.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !strings.Contains(err.Error(), "last error") {
			t.Errorf("error %q does not carry the underlying write failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SaveBytesWith did not return after cancellation")
	}

	// An already-cancelled context still permits the first attempt (no
	// retry needed on a healthy disk): atomicity and forward progress win
	// over eager cancellation checks.
	if err := SaveBytesWith(ctx, nil, fsx.DefaultRetry, path, []byte("payload")); err != nil {
		t.Fatalf("first-attempt save under a dead context: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "payload" {
		t.Fatalf("saved file = %q, %v", data, err)
	}
}

func TestSaveBytesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob.env")
	data := []byte("wftest v1\nmeta x {\"key\":\"abc\"}\n")
	if err := SaveBytesWith(context.Background(), nil, fsx.DefaultRetry, path, data); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file contents differ from written data")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("stat: %v, mode %v", err, fi.Mode())
	}
}

// A filesystem that cannot fsync directories (EINVAL/EOPNOTSUPP) stays
// best-effort: the write succeeds.
func TestWriteAtomicDirSyncUnsupported(t *testing.T) {
	for _, unsupported := range []error{syscall.EINVAL, syscall.EOPNOTSUPP} {
		ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpSyncDir, Nth: 1, Count: -1, Err: unsupported})
		path := filepath.Join(t.TempDir(), "blob")
		if err := writeAtomic(ff, path, []byte("x")); err != nil {
			t.Errorf("dir sync %v should be best-effort, got %v", unsupported, err)
		}
	}
}

// A real I/O failure on the directory sync means the rename may not be
// durable; it must surface instead of being swallowed.
func TestWriteAtomicDirSyncIOError(t *testing.T) {
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpSyncDir, Nth: 1, Err: syscall.EIO})
	path := filepath.Join(t.TempDir(), "blob")
	err := writeAtomic(ff, path, []byte("x"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("dir sync EIO swallowed: got %v", err)
	}
}
