package fsx

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// quickRetry keeps fault-schedule tests fast: same shape as DefaultRetry,
// millisecond backoff.
var quickRetry = RetryPolicy{Attempts: 3, Base: time.Millisecond}

// sampleEnvelope is representative file content: the writer never looks
// inside it.
var sampleEnvelope = []byte("wftest v1\nmeta x {\"key\":\"abc\"}\n")

// assertContents requires path to hold exactly want.
func assertContents(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file holds %q, want %q", got, want)
	}
}

func TestWriteAtomicRetriesTransientFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")

	// Two transient rename failures: absorbed by the three-attempt policy.
	ff := NewFaultFS(nil, 1, Rule{Op: OpRename, Nth: 1, Count: 2, Err: syscall.EIO})
	if err := WriteAtomic(context.Background(), ff, quickRetry, path, sampleEnvelope); err != nil {
		t.Fatalf("write with 2 transient failures: %v", err)
	}
	assertContents(t, path, sampleEnvelope)
	if got := ff.CountOf(OpRename); got != 3 {
		t.Errorf("rename attempted %d times, want 3", got)
	}

	// A rename that fails on every attempt: the policy gives up with an
	// error naming the attempt count.
	ff = NewFaultFS(nil, 1, Rule{Op: OpRename, Nth: 1, Count: -1, Err: syscall.EIO})
	err := WriteAtomic(context.Background(), ff, quickRetry, path, []byte("other"))
	if err == nil {
		t.Fatal("write succeeded with a permanently failing rename")
	}
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "attempts") {
		t.Errorf("persistent-failure error = %v", err)
	}
	// The prior good file must be untouched by the failed overwrite.
	assertContents(t, path, sampleEnvelope)
}

// A permanent fault (the out-of-space class) must not burn the backoff
// schedule: one attempt, immediate surfacing.
func TestWriteAtomicPermanentFaultBailsImmediately(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	ff := NewFaultFS(nil, 1, Rule{Op: OpCreateTemp, Nth: 1, Count: -1, Err: syscall.ENOSPC})
	err := WriteAtomic(context.Background(), ff, quickRetry, path, []byte("payload"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if got := ff.CountOf(OpCreateTemp); got != 1 {
		t.Errorf("ENOSPC retried: %d CreateTemp attempts, want 1", got)
	}
}

// A torn write is caught before the rename: the half-written temp file is
// discarded and the retry writes a fresh one, so the destination never
// holds a torn byte.
func TestWriteAtomicTornWriteNeverPublishesPartialBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	ff := NewFaultFS(nil, 1, Rule{Op: OpWrite, Nth: 1, Kind: FaultTorn, Err: syscall.EIO})
	if err := WriteAtomic(context.Background(), ff, quickRetry, path, sampleEnvelope); err != nil {
		t.Fatalf("write with one torn write: %v", err)
	}
	assertContents(t, path, sampleEnvelope)
	// The discarded temp file must not linger next to the file.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after torn-write retry, want just the file", len(entries))
	}
}

// TestWriteAtomicContextCancellation pins the cancellable retry: a caller
// shutting down over a failing disk must get out of the backoff schedule
// as soon as its context dies, with an error naming both the cancellation
// and the underlying write failure — and must not wait out the remaining
// backoff (pinned by an hour-long backoff that would hang the test if
// slept).
func TestWriteAtomicContextCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	ff := NewFaultFS(nil, 1, Rule{Op: OpRename, Nth: 1, Count: -1, Err: syscall.EIO})
	slow := RetryPolicy{Attempts: 3, Base: time.Hour}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- WriteAtomic(ctx, ff, slow, path, []byte("payload")) }()
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
		t.Fatal("WriteAtomic did not return after cancellation")
	}

	// An already-cancelled context still permits the first attempt (no
	// retry needed on a healthy disk): atomicity and forward progress win
	// over eager cancellation checks.
	if err := WriteAtomic(ctx, nil, DefaultRetry, path, []byte("payload")); err != nil {
		t.Fatalf("first-attempt write under a dead context: %v", err)
	}
	assertContents(t, path, []byte("payload"))
}

func TestWriteAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob.env")
	if err := WriteAtomic(context.Background(), nil, DefaultRetry, path, sampleEnvelope); err != nil {
		t.Fatalf("write: %v", err)
	}
	assertContents(t, path, sampleEnvelope)
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("stat: %v, mode %v", err, fi.Mode())
	}
}

// A filesystem that cannot fsync directories (EINVAL/EOPNOTSUPP) stays
// best-effort: the write succeeds.
func TestWriteAtomicDirSyncUnsupported(t *testing.T) {
	for _, unsupported := range []error{syscall.EINVAL, syscall.EOPNOTSUPP} {
		ff := NewFaultFS(nil, 1, Rule{Op: OpSyncDir, Nth: 1, Count: -1, Err: unsupported})
		path := filepath.Join(t.TempDir(), "blob")
		if err := writeAtomicOnce(ff, path, []byte("x")); err != nil {
			t.Errorf("dir sync %v should be best-effort, got %v", unsupported, err)
		}
	}
}

// A real I/O failure on the directory sync means the rename may not be
// durable; it must surface instead of being swallowed.
func TestWriteAtomicDirSyncIOError(t *testing.T) {
	ff := NewFaultFS(nil, 1, Rule{Op: OpSyncDir, Nth: 1, Err: syscall.EIO})
	path := filepath.Join(t.TempDir(), "blob")
	err := writeAtomicOnce(ff, path, []byte("x"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("dir sync EIO swallowed: got %v", err)
	}
}
