package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"waitfree/internal/envelope"
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

// TestEncodeMatchesCommittedCheckpoint pins the on-disk format byte for
// byte: re-encoding the committed parity checkpoint reproduces the file.
func TestEncodeMatchesCommittedCheckpoint(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "flatparity", "resume_sticky3.wfcp"))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Decode(want)
	if err != nil {
		t.Fatalf("decode committed checkpoint: %v", err)
	}
	got, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-encoding differs from the committed file\ngot:  %q\nwant: %q", got, want)
	}
}

// TestSaveRetriesTransientFailures drives SaveFS through a FaultFS: the
// retry policy absorbs transient write faults and an unabsorbed one
// leaves the previous checkpoint loadable.
func TestSaveRetriesTransientFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")

	// Two transient rename failures: absorbed by the three-attempt policy.
	ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: 2, Err: syscall.EIO})
	if err := SaveFS(ff, path, sampleCheckpoint(1)); err != nil {
		t.Fatalf("save with 2 transient failures: %v", err)
	}
	if _, err := LoadFS(nil, path); err != nil {
		t.Fatalf("load after retried save: %v", err)
	}
	if got := ff.CountOf(fsx.OpRename); got != 3 {
		t.Errorf("rename attempted %d times, want 3", got)
	}

	// A rename that fails on every attempt: the save gives up with an
	// error naming the attempt count, and the prior file survives.
	ff = fsx.NewFaultFS(nil, 1, fsx.Rule{Op: fsx.OpRename, Nth: 1, Count: -1, Err: syscall.EIO})
	err := SaveFS(ff, path, sampleCheckpoint(2))
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "attempts") {
		t.Errorf("persistent-failure error = %v", err)
	}
	if got, err := LoadFS(nil, path); err != nil || len(got.Trees) != 1 {
		t.Errorf("failed save clobbered the existing file: %v", err)
	}
}

// A transient read fault is absorbed by the load's retry policy, as on
// every other storage tier.
func TestLoadRetriesTransientReadFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	cp := sampleCheckpoint(3)
	if err := SaveFS(nil, path, cp); err != nil {
		t.Fatal(err)
	}
	rules, err := fsx.ParseRules("readfile:1:eio")
	if err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, 1, rules...)
	got, err := LoadFS(ff, path)
	if err != nil {
		t.Fatalf("load with one transient read fault: %v", err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("retried load mismatch\nbefore: %+v\nafter:  %+v", cp, got)
	}
	if n := ff.CountOf(fsx.OpReadFile); n != 2 {
		t.Errorf("ReadFile attempted %d times, want 2", n)
	}
}

// FuzzDurableDecode feeds arbitrary bytes to Decode: it must never panic,
// every error must be a *CorruptError wrapping ErrCorruptCheckpoint, any
// salvage must be the decoded header plus a prefix of the tree records,
// and a clean decode must re-encode to the input up to the one final
// newline the decoder tolerates missing or doubled.
func FuzzDurableDecode(f *testing.F) {
	for _, trees := range []int{0, 1, 3} {
		data, err := Encode(sampleCheckpoint(trees))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	if data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "flatparity", "resume_sticky3.wfcp")); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(data)
		if err == nil {
			enc, err := Encode(cp)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !sameUpToFinalNewline(enc, data) {
				t.Fatalf("clean decode re-encodes differently\nin:  %q\nout: %q", data, enc)
			}
			return
		}
		var ce *CorruptError
		if !errors.Is(err, ErrCorruptCheckpoint) || !errors.As(err, &ce) {
			t.Fatalf("err = %v (%T), want a *CorruptError wrapping ErrCorruptCheckpoint", err, err)
		}
		if cp != nil {
			t.Fatalf("failed decode returned a checkpoint")
		}
		s := ce.Salvaged
		if s == nil {
			return
		}
		header, records, _ := envelope.Decode(Magic, treeKind, data)
		var head explore.Checkpoint
		if err := json.Unmarshal(header, &head); err != nil {
			t.Fatalf("salvage from a header that does not parse: %v", err)
		}
		if len(s.Trees) < len(head.Trees) || len(s.Trees) > len(head.Trees)+len(records) {
			t.Fatalf("salvaged %d trees from %d header trees and %d records", len(s.Trees), len(head.Trees), len(records))
		}
		for i, tr := range s.Trees[len(head.Trees):] {
			var want explore.TreeResult
			if err := json.Unmarshal(records[i], &want); err != nil || !reflect.DeepEqual(tr, want) {
				t.Fatalf("salvaged tree %d differs from its record (%v)", i, err)
			}
		}
		got := *s
		got.Trees, head.Trees = nil, nil
		if !reflect.DeepEqual(got, head) {
			t.Fatalf("salvaged header %+v, decoded %+v", got, head)
		}
	})
}

// sameUpToFinalNewline reports whether enc (which ends in a newline)
// equals data, data plus its missing final newline, or data minus a
// doubled one.
func sameUpToFinalNewline(enc, data []byte) bool {
	return bytes.Equal(enc, data) ||
		bytes.Equal(enc[:len(enc)-1], data) ||
		bytes.Equal(append(enc[:len(enc):len(enc)], '\n'), data)
}

// sinkBytes and sinkCheckpoint keep benchmarked results live.
var (
	sinkBytes      []byte
	sinkCheckpoint *explore.Checkpoint
)

// BenchmarkCheckpointCodec times the checkpoint <-> line-format mapping
// on a 16-tree checkpoint (the size of a sticky/4 run).
func BenchmarkCheckpointCodec(b *testing.B) {
	cp := sampleCheckpoint(16)
	data, err := Encode(cp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sinkBytes, err = Encode(cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sinkCheckpoint, err = Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
