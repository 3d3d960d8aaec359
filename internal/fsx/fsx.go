// Package fsx is the repo's single filesystem seam: every disk tier
// (checkpoint files in internal/durable, result-cache entries in
// internal/rescache, the explorer's memo spill in internal/explore, the
// daemon job store in internal/server) performs its file I/O through the
// FS interface here instead of calling os.* directly. Production code
// passes OS{} (or nil, which every consumer resolves to OS{} via Or);
// tests pass a *FaultFS (fault.go) to inject deterministic, seedable
// storage faults — fail-the-Nth-op, torn writes, ENOSPC, fsync failure,
// read bit-flips — and assert the consumer's retry/degradation ladder
// from the outside, with no per-package seam variables.
//
// The package also owns the one retry policy all tiers share (retry.go):
// capped, jittered, context-aware exponential backoff for transient
// faults, an immediate bail-out for permanent ones (the out-of-space
// class), so "how does this repo behave on a flaky disk" has a single
// answer; and the one atomic write built on it (WriteAtomic, write.go),
// which checkpoints, cache entries and job files all go through. The
// memo spill is the one tier without a whole-file write: it appends
// checksummed binary records with File.WriteAt and reads them back with
// File.ReadAt, one op per record, retried under the same policy. See
// DESIGN.md section 14 for the per-tier degradation ladders built on top.
package fsx

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// File is the subset of *os.File the disk tiers use. Writers must honor
// the usual contract: a short write returns a non-nil error.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	io.Closer
	// Sync flushes the file's data and metadata to stable storage.
	Sync() error
	// Chmod changes the file's mode.
	Chmod(mode fs.FileMode) error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem interface the disk tiers perform all I/O through.
// It is deliberately small: exactly the operations the durable formats
// need, so a fault implementation can cover every op class.
type FS interface {
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temp file in dir (os.CreateTemp naming).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string, perm fs.FileMode) error
	// ReadDir lists the named directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, persisting renames within it.
	// Implementations return the raw error; callers filter the
	// "directories cannot be synced here" class with IsSyncUnsupported.
	SyncDir(dir string) error
}

// OS is the production passthrough: every method is the corresponding
// os.* call.
type OS struct{}

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Or resolves an optional FS field: nil means the real filesystem. Every
// consumer calls this once at construction so the rest of its code can
// assume a non-nil FS.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}

// IsSyncUnsupported reports whether err is the "directories cannot be
// synced on this filesystem" class of failure (EINVAL, ENOTSUP, ...)
// rather than a real I/O error. Directory syncs stay best-effort under
// it — the rename being persisted is already atomic on the filesystems
// that matter — while a real failure (EIO, ENOSPC) must surface.
func IsSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.EOPNOTSUPP) ||
		errors.Is(err, errors.ErrUnsupported)
}
