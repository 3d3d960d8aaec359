package fsx

import (
	"context"
	"fmt"
	"path/filepath"
)

// WriteAtomic writes data to path through fsys (nil = the real
// filesystem) so that a crash at any instant leaves either the old
// contents or the new ones, never a torn mix: the bytes go to a temp file
// in the same directory, are fsynced, renamed over path, and the
// directory is fsynced. It is the one atomic write every disk tier shares
// (checkpoints, result-cache entries, job files).
//
// Transient failures retry with the policy's capped jittered backoff,
// whose sleeps select on ctx, so a caller shutting down (a draining daemon
// over a failing disk) is never held hostage by the backoff schedule;
// permanent ones (ENOSPC and kin — IsPermanent) surface immediately.
// Cancellation mid-retry returns an error wrapping both ctx.Err() and the
// last write failure; an in-flight attempt itself is not interrupted.
func WriteAtomic(ctx context.Context, fsys FS, policy RetryPolicy, path string, data []byte) error {
	fsys = Or(fsys)
	if err := policy.Do(ctx, func() error {
		return writeAtomicOnce(fsys, path, data)
	}); err != nil {
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	return nil
}

// writeAtomicOnce performs one temp-file/fsync/rename/dir-sync attempt.
// It is the unit the retry policy wraps: any failure leaves path
// untouched (old contents or absent), never torn.
func writeAtomicOnce(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	// CreateTemp opens 0600; the files written here are shareable run
	// state like any report file, so match os.WriteFile(0644).
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	// Some filesystems cannot sync directories at all (EINVAL,
	// EOPNOTSUPP); that stays best-effort, since the rename is already
	// atomic on the filesystems that matter. A real I/O failure means the
	// rename may not be durable and must surface.
	if err := fsys.SyncDir(dir); err != nil && !IsSyncUnsupported(err) {
		return fmt.Errorf("fsx: sync dir %s: %w", dir, err)
	}
	return nil
}
