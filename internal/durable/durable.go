// Package durable persists explore.Checkpoint values with integrity
// guarantees the bare JSON file of the early CLIs lacked. It owns only
// the checkpoint <-> JSON mapping and the *CorruptError contract; the
// line format is an internal/envelope of record kind "tree", the write
// is fsx.WriteAtomic (temp file + fsync + rename + directory fsync,
// retried with backoff on transient errors), and the read is
// envelope.ReadFile (transient read faults retried the same way). Every
// record carries a SHA-256 checksum, and loads are corruption-aware — a
// torn or bit-rotted file is rejected with a structured *CorruptError
// instead of being resumed silently, and the longest valid prefix of
// tree results is salvaged whenever possible.
//
// On disk a checkpoint is:
//
//	waitfree-checkpoint v1
//	meta <sha256-hex> <checkpoint header as compact JSON, Trees omitted>
//	tree <sha256-hex> <one TreeResult as compact JSON>
//	...
//	end <sha256-hex> <tree count> <sha256-hex of every preceding byte>
//
// Because a consensus checkpoint is a set of independent per-tree
// results, any checksummed prefix of tree lines is itself a sound resume
// state — the engine simply re-explores whatever was lost.
//
// Bare-JSON files from the pre-durable CLIs fail the magic line like any
// other foreign file.
package durable

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"waitfree/internal/envelope"
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

// treeKind is the record kind of a checkpoint envelope: one record per
// finished tree.
const treeKind = "tree"

// Encode renders cp into the checksummed line format: the header is the
// checkpoint with Trees omitted, and each tree is one record.
func Encode(cp *explore.Checkpoint) ([]byte, error) {
	head := *cp
	head.Trees = nil
	meta, err := json.Marshal(&head)
	if err != nil {
		return nil, err
	}
	trees := make([][]byte, len(cp.Trees))
	for i := range cp.Trees {
		if trees[i], err = json.Marshal(&cp.Trees[i]); err != nil {
			return nil, err
		}
	}
	return envelope.Encode(Magic, treeKind, meta, trees), nil
}

// Decode parses data as a durable checkpoint and validates every
// checksum. On any integrity failure it returns a *CorruptError wrapping
// ErrCorruptCheckpoint; if the header and a prefix of tree records
// verified before the failure, the error carries that prefix in Salvaged.
func Decode(data []byte) (*explore.Checkpoint, error) {
	return decode(envelope.Decode(Magic, treeKind, data))
}

// decode maps an envelope decode result onto a checkpoint. The header
// is line 2 and tree i is line i+3; a JSON failure in either comes
// before any envelope failure, which lies past the verified prefix.
func decode(header []byte, trees [][]byte, err error) (*explore.Checkpoint, error) {
	if header == nil {
		return nil, fromEnvelope(nil, err)
	}
	cp := &explore.Checkpoint{}
	if jerr := json.Unmarshal(header, cp); jerr != nil {
		return nil, &CorruptError{Reason: fmt.Sprintf("line 2: meta payload: %v", jerr)}
	}
	for i, rec := range trees {
		var tr explore.TreeResult
		if jerr := json.Unmarshal(rec, &tr); jerr != nil {
			return nil, &CorruptError{Reason: fmt.Sprintf("line %d: tree payload: %v", i+3, jerr), Salvaged: cp}
		}
		cp.Trees = append(cp.Trees, tr)
	}
	if err != nil {
		return nil, fromEnvelope(cp, err)
	}
	return cp, nil
}

// fromEnvelope turns an envelope integrity failure into a *CorruptError.
// The envelope sentinel's text is dropped: CorruptError.Error already
// leads with ErrCorruptCheckpoint's.
func fromEnvelope(salvaged *explore.Checkpoint, err error) *CorruptError {
	reason := strings.TrimPrefix(err.Error(), envelope.ErrCorrupt.Error()+": ")
	return &CorruptError{Reason: reason, Salvaged: salvaged}
}

// SaveFS atomically writes cp to path in the durable format through fsys
// (nil = the real filesystem; tests pass an *fsx.FaultFS to script
// storage faults) with fsx.WriteAtomic under fsx.DefaultRetry, so a crash
// at any instant leaves either the old file or the new one — never a torn
// mix.
func SaveFS(fsys fsx.FS, path string, cp *explore.Checkpoint) error {
	data, err := Encode(cp)
	if err != nil {
		return fmt.Errorf("durable: encode checkpoint: %w", err)
	}
	return fsx.WriteAtomic(context.Background(), fsys, fsx.DefaultRetry, path, data)
}

// LoadFS reads and decodes the checkpoint at path through fsys (nil = the
// real filesystem) with envelope.ReadFile, so transient read faults retry
// under fsx.DefaultRetry. A missing file surfaces as an error satisfying
// errors.Is(err, fs.ErrNotExist) so callers can treat it as a fresh start;
// an integrity failure surfaces as a *CorruptError (with Path set and any
// salvageable prefix attached).
func LoadFS(fsys fsx.FS, path string) (*explore.Checkpoint, error) {
	header, trees, err := envelope.ReadFile(fsys, fsx.DefaultRetry, path, Magic, treeKind)
	if err != nil && !errors.Is(err, envelope.ErrCorrupt) {
		return nil, err
	}
	cp, err := decode(header, trees, err)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return cp, nil
}
