package explore

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"io"

	"waitfree/internal/envelope"
	"waitfree/internal/fsx"
)

// This file implements the memo table's disk-spill tier (Options.
// MemoSpillDir): instead of forgetting an evicted summary, the table
// serializes it into a per-record checksummed durable envelope appended to
// a spill file, remembers the record's offset, and serves it back on a
// later lookup. A budgeted run with a spill tier therefore scores exactly
// the memo hits of an unbounded run — the budget trades memory for disk —
// and never sets the Degraded flag.
//
// Each spilled entry is written as an independent durable envelope
// (internal/durable line format, magic spillMagic, record kind "sum") at a
// known offset, so a single entry can be read back and integrity-checked
// without touching the rest of the file. Envelope payloads must be
// newline-free; memo keys and summary encodings are arbitrary bytes, so
// both are base64-encoded (the key as the header — verified on load
// against the requested key — and the summary as the single record).
//
// The spill file is private to one memo table (one execution tree),
// created lazily in MemoSpillDir on the first eviction and deleted when
// the table is released at tree completion — or the moment the tier
// breaks, so a long-lived daemon never litters the spill dir. Failures
// walk the unified degradation ladder instead of wedging the tier:
// transient I/O errors are retried under fsx.DefaultRetry; a write or
// read the retries cannot absorb buys one rebuild (fresh file, cleared
// index — already-spilled entries are lost, so the run degrades, but the
// tier keeps spilling); a failure after the rebuild breaks the tier for
// the rest of the tree. A per-record integrity failure is confined to
// that record: the entry is dropped (its hit is lost) and every other
// spilled entry keeps serving. The exploration never fails because of the
// spill tier; it only loses hits, and `lost` reports honestly when it
// has.

const (
	spillMagic = "waitfree-memospill-v1"
	spillKind  = "sum"
)

// spillRef locates one entry's envelope within the spill file.
type spillRef struct {
	off int64
	len int
}

// memoSpill is the disk tier behind a memoTable. Like the table, it is
// owned by one explorer and driven from its goroutine only. Its index is
// the one place the memo still converts keys to strings: a spill store
// or reload is the cold path, next to an envelope write or read.
type memoSpill struct {
	dir   string
	fsys  fsx.FS
	f     fsx.File
	index map[string]spillRef
	off   int64

	broken  bool // tier dead for the rest of the tree
	rebuilt bool // the one allowed rebuild has been spent
	lost    bool // at least one spilled entry's hit is gone: run degrades

	// Ladder telemetry, aggregated into the engine counters at tree
	// completion.
	retries  int64
	rebuilds int64
}

func newMemoSpill(dir string, fsys fsx.FS) *memoSpill {
	return &memoSpill{dir: dir, fsys: fsx.Or(fsys), index: make(map[string]spillRef)}
}

// policy is the unified retry policy with the spill's retry counter hung
// on it. The spill inherits the memo table's single-goroutine discipline,
// so the counter is a plain int64.
func (sp *memoSpill) policy() fsx.RetryPolicy {
	return fsx.DefaultRetry.WithObserver(func(error) { sp.retries++ })
}

// writeBlock writes block at the current append offset (creating the
// spill file on first use), retrying transient faults. It does not
// advance the offset; the caller records the ref on success.
func (sp *memoSpill) writeBlock(block []byte) error {
	return sp.policy().Do(context.Background(), func() error {
		if sp.f == nil {
			f, err := sp.fsys.CreateTemp(sp.dir, "memospill-*.wfspill")
			if err != nil {
				return err
			}
			sp.f = f
		}
		n, err := sp.f.WriteAt(block, sp.off)
		if err == nil && n != len(block) {
			err = io.ErrShortWrite
		}
		return err
	})
}

// store appends sum's envelope to the spill file. It reports whether the
// entry is durably spilled; on false the caller degrades for this entry.
// An unabsorbed write failure buys one rebuild before breaking the tier.
func (sp *memoSpill) store(key []byte, sum *summary) bool {
	if sp.broken {
		return false
	}
	block := encodeSpillRecord(key, sum)
	if sp.writeBlock(block) != nil {
		if !sp.rebuild() || sp.writeBlock(block) != nil {
			sp.breakTier()
			return false
		}
	}
	sp.index[string(key)] = spillRef{off: sp.off, len: len(block)}
	sp.off += int64(len(block))
	return true
}

// load reads the entry spilled under key back into a fresh summary,
// verifying the envelope checksums and the stored key. A missing index
// entry is an ordinary miss. A read the retries cannot absorb walks the
// same rebuild-then-break ladder as store; an integrity failure is
// confined to the one record — it is dropped (a lost hit) and the rest of
// the spill keeps serving.
func (sp *memoSpill) load(key []byte) (*summary, bool) {
	if sp.broken || sp.f == nil {
		return nil, false
	}
	ref, ok := sp.index[string(key)]
	if !ok {
		return nil, false
	}
	buf := make([]byte, ref.len)
	err := sp.policy().Do(context.Background(), func() error {
		_, rerr := sp.f.ReadAt(buf, ref.off)
		return rerr
	})
	if err != nil {
		if !sp.rebuild() {
			sp.breakTier()
		}
		return nil, false
	}
	sum, ok := decodeSpillRecord(key, buf)
	if !ok {
		delete(sp.index, string(key))
		sp.lost = true
		return nil, false
	}
	return sum, true
}

// rebuild discards the (unwritable or unreadable) spill file and starts a
// fresh one, once per tree. Entries already spilled are lost — the run
// degrades — but the tier keeps absorbing future evictions.
func (sp *memoSpill) rebuild() bool {
	if sp.rebuilt {
		return false
	}
	sp.rebuilt = true
	sp.rebuilds++
	sp.removeFile()
	if len(sp.index) > 0 {
		sp.lost = true
	}
	sp.index = make(map[string]spillRef)
	sp.off = 0
	return true
}

// breakTier retires the spill for the rest of the tree: subsequent
// evictions degrade exactly as if no spill were configured, and the file
// is removed immediately so a long-lived process does not leak it.
func (sp *memoSpill) breakTier() {
	sp.broken = true
	sp.lost = true
	sp.removeFile()
	sp.index = nil
}

// removeFile closes and deletes the spill file, if one exists.
func (sp *memoSpill) removeFile() {
	if sp.f == nil {
		return
	}
	name := sp.f.Name()
	sp.f.Close()
	sp.fsys.Remove(name)
	sp.f = nil
}

// close deletes the spill file (the tier is a cache private to one tree;
// nothing in it outlives the exploration).
func (sp *memoSpill) close() {
	sp.removeFile()
	sp.index = nil
}

// ---- record codec ----

// encodeSummary renders a summary's aggregate fields (never the transient
// retained/spilled bookkeeping) as varints: height, nodes, leaves, len(acc),
// acc values.
func encodeSummary(sum *summary) []byte {
	b := make([]byte, 0, 16+5*len(sum.acc))
	b = binary.AppendVarint(b, int64(sum.height))
	b = binary.AppendVarint(b, sum.nodes)
	b = binary.AppendVarint(b, sum.leaves)
	b = binary.AppendUvarint(b, uint64(len(sum.acc)))
	for _, v := range sum.acc {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func decodeSummary(b []byte) (*summary, bool) {
	sum := &summary{}
	h, n := binary.Varint(b)
	if n <= 0 {
		return nil, false
	}
	b = b[n:]
	sum.height = int(h)
	if sum.nodes, n = binary.Varint(b); n <= 0 {
		return nil, false
	}
	b = b[n:]
	if sum.leaves, n = binary.Varint(b); n <= 0 {
		return nil, false
	}
	b = b[n:]
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, false
	}
	b = b[n:]
	if cnt > 0 {
		sum.acc = make([]int32, cnt)
		for i := range sum.acc {
			v, n := binary.Varint(b)
			if n <= 0 {
				return nil, false
			}
			b = b[n:]
			sum.acc[i] = int32(v)
		}
	}
	return sum, len(b) == 0
}

func encodeSpillRecord(key []byte, sum *summary) []byte {
	hdr := base64.StdEncoding.AppendEncode(nil, key)
	payload := base64.StdEncoding.AppendEncode(nil, encodeSummary(sum))
	return envelope.Encode(spillMagic, spillKind, hdr, [][]byte{payload})
}

func decodeSpillRecord(key, block []byte) (*summary, bool) {
	hdr, recs, err := envelope.Decode(spillMagic, spillKind, block)
	if err != nil || len(recs) != 1 {
		return nil, false
	}
	gotKey, err := base64.StdEncoding.AppendDecode(nil, hdr)
	if err != nil || !bytes.Equal(gotKey, key) {
		return nil, false
	}
	raw, err := base64.StdEncoding.AppendDecode(nil, recs[0])
	if err != nil {
		return nil, false
	}
	return decodeSummary(raw)
}
