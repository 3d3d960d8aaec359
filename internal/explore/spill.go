package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"

	"waitfree/internal/fsx"
)

// This file implements the memo table's disk-spill tier (Options.
// MemoSpillDir): instead of forgetting an evicted summary, the table
// serializes it into a checksummed binary record appended to a spill
// file, remembers the record's offset, and serves it back on a later
// lookup. A budgeted run with a spill tier therefore scores exactly the
// memo hits of an unbounded run — the budget trades memory for disk — and
// never sets the Degraded flag.
//
// Each spilled entry is one independent record at a known offset, so a
// single entry can be read back and integrity-checked without touching
// the rest of the file:
//
//	uvarint(len(key)) ‖ key ‖ summary varints ‖ SHA-256(all preceding bytes)
//
// The summary varints are appendSummary's. A load serves a record only
// if its checksum holds and its stored key equals the requested one.
// Nothing but this table ever reads the file, so the record carries no
// magic or version; store and load encode into and read from buffers the
// spill owns and reuses.
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

// spillRef locates one entry's record within the spill file.
type spillRef struct {
	off int64
	len int
}

// memoSpill is the disk tier behind a memoTable. Like the table, it is
// owned by one explorer and driven from its goroutine only. Its index is
// the one place the memo still converts keys to strings: a spill store
// or reload is the cold path, next to a record write or read.
type memoSpill struct {
	dir   string
	fsys  fsx.FS
	f     fsx.File
	index map[string]spillRef
	off   int64

	wbuf []byte // store's record encoding, reused across stores
	rbuf []byte // load's read buffer, reused across loads

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

// store appends sum's record to the spill file. It reports whether the
// entry is durably spilled; on false the caller degrades for this entry.
// An unabsorbed write failure buys one rebuild before breaking the tier.
func (sp *memoSpill) store(key []byte, sum *summary) bool {
	if sp.broken {
		return false
	}
	sp.wbuf = appendSpillRecord(sp.wbuf[:0], key, sum)
	block := sp.wbuf
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
// verifying the record checksum and the stored key. A missing index
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
	if cap(sp.rbuf) < ref.len {
		sp.rbuf = make([]byte, ref.len)
	}
	buf := sp.rbuf[:ref.len]
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
	gotKey, sum, ok := decodeSpillRecord(buf)
	if !ok || !bytes.Equal(gotKey, key) {
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

// appendSummary appends a summary's aggregate fields (never the transient
// ref/retained/spilled bookkeeping) to b as varints: height, nodes,
// leaves, len(acc), acc values.
func appendSummary(b []byte, sum *summary) []byte {
	b = binary.AppendVarint(b, int64(sum.height))
	b = binary.AppendVarint(b, sum.nodes)
	b = binary.AppendVarint(b, sum.leaves)
	b = binary.AppendUvarint(b, uint64(len(sum.acc)))
	for _, v := range sum.acc {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// minimal reports whether binary.Uvarint or binary.Varint read a varint
// of n bytes from the head of b in the minimal encoding the Append forms
// write (a multi-byte varint never ends in a zero byte), so every
// accepted record re-encodes to its own bytes. n <= 0 is a read error.
func minimal(b []byte, n int) bool {
	return n == 1 || n > 1 && b[n-1] != 0
}

// decodeSummary is appendSummary's inverse; it accepts exactly the bytes
// appendSummary writes.
func decodeSummary(b []byte) (*summary, bool) {
	var f [3]int64 // height, nodes, leaves
	for i := range f {
		v, n := binary.Varint(b)
		if !minimal(b, n) {
			return nil, false
		}
		f[i], b = v, b[n:]
	}
	cnt, n := binary.Uvarint(b)
	// Every acc value takes at least one byte: a count beyond the
	// remaining bytes is corrupt, and must not size an allocation.
	if !minimal(b, n) || cnt > uint64(len(b)-n) {
		return nil, false
	}
	b = b[n:]
	sum := &summary{height: int(f[0]), nodes: f[1], leaves: f[2]}
	if cnt > 0 {
		sum.acc = make([]int32, cnt)
		for i := range sum.acc {
			v, n := binary.Varint(b)
			if !minimal(b, n) || v != int64(int32(v)) {
				return nil, false
			}
			sum.acc[i], b = int32(v), b[n:]
		}
	}
	return sum, len(b) == 0
}

// appendSpillRecord appends the spill record of key and sum to b.
func appendSpillRecord(b, key []byte, sum *summary) []byte {
	start := len(b)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = appendSummary(b, sum)
	h := sha256.Sum256(b[start:])
	return append(b, h[:]...)
}

// decodeSpillRecord checks rec's SHA-256 and splits it into the stored
// key (aliasing rec) and a fresh summary. It accepts exactly the bytes
// appendSpillRecord writes; anything else — a failed checksum, a
// truncated or overlong field, trailing bytes — is ok=false.
func decodeSpillRecord(rec []byte) (key []byte, sum *summary, ok bool) {
	if len(rec) < sha256.Size {
		return nil, nil, false
	}
	body := rec[:len(rec)-sha256.Size]
	if sha256.Sum256(body) != [sha256.Size]byte(rec[len(body):]) {
		return nil, nil, false
	}
	klen, n := binary.Uvarint(body)
	if !minimal(body, n) || klen > uint64(len(body)-n) {
		return nil, nil, false
	}
	key = body[n : n+int(klen)]
	if sum, ok = decodeSummary(body[n+int(klen):]); !ok {
		return nil, nil, false
	}
	return key, sum, true
}
