// Package durable persists explore.Checkpoint values with integrity
// guarantees the bare JSON file of the early CLIs lacked: writes are
// atomic (temp file + rename + fsync, retried with backoff on transient
// errors), every record carries a SHA-256 checksum, and loads are
// corruption-aware — a torn or bit-rotted file is rejected with a
// structured *CorruptError instead of being resumed silently, and the
// longest valid prefix of tree results is salvaged whenever possible.
//
// The on-disk format is line-oriented so that truncation at any byte
// offset leaves a detectable (and usually salvageable) prefix:
//
//	waitfree-checkpoint v1
//	meta <sha256-hex> <checkpoint header as compact JSON, Trees omitted>
//	tree <sha256-hex> <one TreeResult as compact JSON>
//	...
//	end <sha256-hex> <tree count> <sha256-hex of every preceding byte>
//
// Each record's first checksum covers that line's own payload; the end
// trailer's payload additionally pins the record count and the whole
// preceding byte stream. Because a
// consensus checkpoint is a set of independent per-tree results, any
// checksummed prefix of tree lines is itself a sound resume state — the
// engine simply re-explores whatever was lost.
//
// Bare-JSON files from the pre-durable CLIs fail the magic line like any
// other foreign file.
package durable

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"waitfree/internal/explore"
	"waitfree/internal/fsx"
)

// Magic is the first line of every durable checkpoint file; the trailing
// version is the format (not engine) version.
const Magic = "waitfree-checkpoint v1"

// ErrCorruptCheckpoint is the sentinel wrapped by every integrity failure:
// empty files, torn writes, checksum mismatches, and malformed records.
// Use errors.As to retrieve the *CorruptError carrying the salvaged
// prefix.
var ErrCorruptCheckpoint = errors.New("durable: corrupt checkpoint")

// CorruptError describes a checkpoint that failed integrity validation.
type CorruptError struct {
	// Path is the offending file ("" when decoding from memory).
	Path string
	// Reason says what failed, in terms of the line-oriented format.
	Reason string
	// Salvaged is the longest valid prefix of the file: the checkpoint
	// header plus every tree record whose checksum verified before the
	// first bad byte. It is nil when not even the header survived.
	// Resuming from it is sound — lost trees are simply re-explored — but
	// callers must opt in explicitly; LoadFS returns it alongside the error,
	// never instead of it.
	Salvaged *explore.Checkpoint
}

func (e *CorruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "checkpoint"
	}
	s := fmt.Sprintf("%v: %s: %s", ErrCorruptCheckpoint, where, e.Reason)
	if e.Salvaged != nil {
		s += fmt.Sprintf(" (%d of %d trees salvageable)", len(e.Salvaged.Trees), e.Salvaged.Roots)
	}
	return s
}

// Unwrap makes errors.Is(err, ErrCorruptCheckpoint) hold.
func (e *CorruptError) Unwrap() error { return ErrCorruptCheckpoint }

func sum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// Encode renders cp into the checksummed line format.
func Encode(cp *explore.Checkpoint) ([]byte, error) {
	head := *cp
	head.Trees = nil
	meta, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString(Magic)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "meta %s %s\n", sum(meta), meta)
	for i := range cp.Trees {
		tree, err := json.Marshal(&cp.Trees[i])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "tree %s %s\n", sum(tree), tree)
	}
	trailer := fmt.Sprintf("%d %s", len(cp.Trees), sum(b.Bytes()))
	fmt.Fprintf(&b, "end %s %s\n", sum([]byte(trailer)), trailer)
	return b.Bytes(), nil
}

// corrupt builds the decode failure for reason, attaching whatever prefix
// was salvaged so far.
func corrupt(salvaged *explore.Checkpoint, format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...), Salvaged: salvaged}
}

// splitLine cuts "kind <checksum> <payload>" into its three fields and
// verifies the checksum over the payload.
func splitLine(line []byte) (kind string, payload []byte, err error) {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return "", nil, fmt.Errorf("record %q has no checksum field", truncateForErr(line))
	}
	kind = string(line[:sp])
	rest := line[sp+1:]
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return kind, nil, fmt.Errorf("%s record has no payload field", kind)
	}
	want, payload := string(rest[:sp]), rest[sp+1:]
	if got := sum(payload); got != want {
		return kind, nil, fmt.Errorf("%s record checksum mismatch (stored %.12s…, computed %.12s…)", kind, want, got)
	}
	return kind, payload, nil
}

func truncateForErr(b []byte) string {
	const max = 24
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// Decode parses data as a durable checkpoint and validates every
// checksum. On any integrity failure it returns a *CorruptError wrapping
// ErrCorruptCheckpoint; if the header and a prefix of tree records
// verified before the failure, the error carries that prefix in Salvaged.
func Decode(data []byte) (*explore.Checkpoint, error) {
	if len(data) == 0 {
		return nil, corrupt(nil, "empty file")
	}

	var cp *explore.Checkpoint
	lineNo := 0
	sawEnd := false
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// A file ending without a newline was almost certainly torn
			// mid-record; parse the fragment as a line anyway — its checksum
			// decides. Only a record missing nothing but its final newline
			// can still verify.
			nl = len(data) - off
		}
		line := data[off : off+nl]
		lineStart := off
		off += nl + 1
		if sawEnd {
			if len(line) == 0 && off >= len(data) {
				continue // single trailing newline after the end record
			}
			return nil, corrupt(cp, "data after end record (line %d)", lineNo+1)
		}
		switch {
		case lineNo == 0:
			if string(line) != Magic {
				return nil, corrupt(nil, "bad magic line %q (want %q)", truncateForErr(line), Magic)
			}
		default:
			kind, payload, err := splitLine(line)
			if err != nil {
				return nil, corrupt(cp, "line %d: %v", lineNo+1, err)
			}
			switch kind {
			case "meta":
				if cp != nil {
					return nil, corrupt(cp, "line %d: duplicate meta record", lineNo+1)
				}
				c := &explore.Checkpoint{}
				if err := json.Unmarshal(payload, c); err != nil {
					return nil, corrupt(nil, "line %d: meta payload: %v", lineNo+1, err)
				}
				cp = c
			case "tree":
				if cp == nil {
					return nil, corrupt(nil, "line %d: tree record before meta", lineNo+1)
				}
				var tr explore.TreeResult
				if err := json.Unmarshal(payload, &tr); err != nil {
					return nil, corrupt(cp, "line %d: tree payload: %v", lineNo+1, err)
				}
				cp.Trees = append(cp.Trees, tr)
			case "end":
				if cp == nil {
					return nil, corrupt(nil, "line %d: end record before meta", lineNo+1)
				}
				var n int
				var streamSum string
				if _, err := fmt.Sscanf(string(payload), "%d %64s", &n, &streamSum); err != nil {
					return nil, corrupt(cp, "line %d: malformed end record: %v", lineNo+1, err)
				}
				if n != len(cp.Trees) {
					return nil, corrupt(cp, "line %d: end record counts %d trees, file holds %d", lineNo+1, n, len(cp.Trees))
				}
				if got := sum(data[:lineStart]); got != streamSum {
					return nil, corrupt(cp, "line %d: stream checksum mismatch", lineNo+1)
				}
				sawEnd = true
			default:
				return nil, corrupt(cp, "line %d: unknown record kind %q", lineNo+1, kind)
			}
		}
		lineNo++
	}
	if !sawEnd {
		return nil, corrupt(cp, "missing end record (file truncated after %d lines)", lineNo)
	}
	return cp, nil
}

// SaveFS atomically writes cp to path in the durable format through fsys
// (nil = the real filesystem; tests pass an *fsx.FaultFS to script
// storage faults): the encoded bytes go to a temp file in the same
// directory, are fsynced, renamed over path, and the directory is
// fsynced, so a crash at any instant leaves either the old file or the new
// one — never a torn mix. Transient IO failures are retried under
// fsx.DefaultRetry.
func SaveFS(fsys fsx.FS, path string, cp *explore.Checkpoint) error {
	data, err := Encode(cp)
	if err != nil {
		return fmt.Errorf("durable: encode checkpoint: %w", err)
	}
	return SaveBytesWith(context.Background(), fsys, fsx.DefaultRetry, path, data)
}

// SaveBytesWith atomically writes data to path through fsys (nil = the
// real filesystem) under the given retry policy, with the same durability
// discipline as SaveFS: temp file in the same directory, fsync, rename,
// and a directory sync. Transient failures retry with the policy's capped
// jittered backoff, whose sleeps select on ctx, so a caller shutting down
// (a draining daemon over a failing disk) is never held hostage by the
// backoff schedule; permanent ones (ENOSPC and kin — fsx.IsPermanent)
// surface immediately. Cancellation mid-retry returns an error wrapping
// both ctx.Err() and the last write failure; an in-flight write itself is
// not interrupted (atomicity is preserved — the file either has the old
// or the new contents).
func SaveBytesWith(ctx context.Context, fsys fsx.FS, policy fsx.RetryPolicy, path string, data []byte) error {
	resolved := fsx.Or(fsys)
	if err := policy.Do(ctx, func() error {
		return writeAtomic(resolved, path, data)
	}); err != nil {
		return fmt.Errorf("durable: save %s: %w", path, err)
	}
	return nil
}

// writeAtomic performs one temp-file/fsync/rename/dir-sync write attempt
// through fsys. It is the unit the retry policy wraps: any failure leaves
// path untouched (old contents or absent), never torn.
func writeAtomic(fsys fsx.FS, path string, data []byte) error {
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
	// CreateTemp opens 0600; checkpoints are shareable run state like any
	// report file, so match the historical os.WriteFile(0644) permissions.
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
	return syncDir(fsys, dir)
}

// syncDir persists a rename by fsyncing its directory. Some filesystems
// cannot sync directories at all and report EINVAL or EOPNOTSUPP — those
// stay best-effort (the rename is already atomic on the filesystems that
// matter) — but a real I/O failure (EIO, ENOSPC, ...) means the rename may
// not be durable and must surface to the caller instead of being
// swallowed.
func syncDir(fsys fsx.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil && !fsx.IsSyncUnsupported(err) {
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return nil
}

// LoadFS reads and decodes the checkpoint at path through fsys (nil = the
// real filesystem). A missing file surfaces as an error satisfying
// errors.Is(err, fs.ErrNotExist) so callers can treat it as a fresh start;
// an integrity failure surfaces as a *CorruptError (with Path set and any
// salvageable prefix attached).
func LoadFS(fsys fsx.FS, path string) (*explore.Checkpoint, error) {
	data, err := fsx.Or(fsys).ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := Decode(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return cp, nil
}
