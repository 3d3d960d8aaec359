package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"slices"

	"waitfree/internal/fsx"
)

// This file implements the memo table's disk-spill tier (Options.
// MemoSpillDir): instead of forgetting an evicted summary, the table
// serializes it into a checksummed binary record appended to a spill
// file, remembers where the record lies, and serves it back on a later
// lookup. A budgeted run with a spill tier therefore scores exactly the
// memo hits of an unbounded run — the budget trades memory for disk — and
// never sets the Degraded flag.
//
// Each spilled entry is one independent record, so a single entry can be
// read back and integrity-checked without touching the rest of the file:
//
//	uvarint(len(key)) ‖ key ‖ summary varints ‖ SHA-256(all preceding bytes)
//
// The summary varints are appendSummary's. Nothing but this table ever
// reads the file, so the record carries no magic or version.
//
// Block writes. A store appends the record to one pending block of
// spillBlockSize bytes that the spill owns, packing records end to end
// across block boundaries, and writes the block to the file only when it
// is full: one WriteAt per 4 KiB of evictions, every write a whole block.
// A load serves a record wholly past the file's end straight from the
// block, and a record that straddles the boundary from one read of its
// head plus the block; either way through the same checksum and stored-
// key check. The last block of a tree is never written: release deletes
// the file anyway.
//
// The index. Spilled entries are found through an open-addressing index
// of fixed 16-byte slots keyed by the low 32 bits of the key's hash (the
// memo's memoRec.hash), holding only the record's place and length — no
// key bytes. A spilled entry thus costs a slot on the heap, not its key.
// A candidate whose record checksums but stores another key is a hash
// collision: the probe goes on, and nothing is lost. A load decodes into
// a summary and counter buffer the spill owns, valid until its next load.
// A spill tier's memory is thus one block, the record and read buffers,
// and the index; with the table's own, a budgeted spilling run holds the
// budget, the DFS depth, one block and a fixed few bytes per spilled
// entry.
//
// The spill file is private to one memo table and one execution tree,
// created lazily in MemoSpillDir on the first block write and deleted
// when the table is released at tree completion — or the moment the tier
// breaks, so a long-lived daemon never litters the spill dir. The next
// tree through the same table starts a fresh tier (reset): its id keys
// name other configurations, so no record may serve it. Failures walk
// the unified degradation ladder instead of wedging the tier: transient
// I/O errors are retried under fsx.DefaultRetry; a write or read the
// retries cannot absorb buys one rebuild (a fresh file; every record
// already written is lost, so the run degrades unless there was none, but
// the pending block survives into the new file and the tier keeps
// spilling); a failure after the rebuild breaks the tier for the rest of
// the tree. A per-record integrity failure is confined to that record:
// the entry is dropped (its hit is lost) and every other spilled entry
// keeps serving. The exploration never fails because of the spill tier;
// it only loses hits, and `lost` reports honestly when it has.

// spillBlockSize is the size of the pending block, and of every write
// the spill makes.
const spillBlockSize = 4096

// spillSlot is one slot of the spill index: where the record of one
// spilled entry lies and the low 32 bits of its key's hash. n is the
// record's length, 0 for an empty slot. off is the record's logical
// offset, its place in the stream of every record the tree spilled, so a
// slot outlives a rebuild: an off below the current file's base names a
// record the rebuild discarded (or, at -1, one a failed checksum
// dropped), and never serves.
type spillSlot struct {
	off  int64
	n    uint32
	hash uint32
}

// memoSpill is the disk tier behind a memoTable. Like the table, it is
// owned by one explorer and driven from its goroutine only.
type memoSpill struct {
	dir  string
	fsys fsx.FS
	f    fsx.File

	index []spillSlot // linear probing from hash; len 0 or a power of two
	used  int         // occupied slots, discarded records' included

	// The file holds the logical bytes [base, flushed) at offsets
	// [0, flushed-base); the pending block holds [flushed, flushed+
	// len(block)).
	base, flushed int64
	block         []byte // cap spillBlockSize once the first store made it

	wbuf []byte  // store's record encoding, reused across stores
	rbuf []byte  // load's read buffer, reused across loads
	sum  summary // load's decoded summary, valid until the next load

	broken  bool // tier dead for the rest of the tree
	rebuilt bool // the one allowed rebuild has been spent
	lost    bool // at least one spilled entry's hit is gone: run degrades

	// Ladder and volume telemetry, aggregated into the engine counters
	// at tree completion: retries absorbed, rebuilds spent, blocks
	// written and record bytes spilled (written or pending).
	retries  int64
	rebuilds int64
	writes   int64
	bytes    int64
}

func newMemoSpill(dir string, fsys fsx.FS) *memoSpill {
	return &memoSpill{dir: dir, fsys: fsx.Or(fsys)}
}

// reset starts a fresh tier for the next tree in dir, keeping the index,
// the block and the record buffers. The last tree's file is normally
// gone already (release closes the tier at tree completion).
func (sp *memoSpill) reset(dir string, fsys fsx.FS) {
	sp.close()
	*sp = memoSpill{dir: dir, fsys: fsx.Or(fsys), index: sp.index, block: sp.block,
		wbuf: sp.wbuf, rbuf: sp.rbuf, sum: summary{acc: sp.sum.acc}}
}

// policy is the unified retry policy with the spill's retry counter hung
// on it. The spill inherits the memo table's single-goroutine discipline,
// so the counter is a plain int64.
func (sp *memoSpill) policy() fsx.RetryPolicy {
	return fsx.DefaultRetry.WithObserver(func(error) { sp.retries++ })
}

// store appends the record of key, whose hash's low 32 bits are h, to the
// pending block, writing the block out each time it fills. It reports
// whether the entry is spilled; on false the caller degrades for this
// entry. A write failure walks flush's ladder.
func (sp *memoSpill) store(key []byte, h uint32, sum *summary) bool {
	if sp.broken {
		return false
	}
	if sp.block == nil {
		sp.block = make([]byte, 0, spillBlockSize)
	}
	sp.wbuf = appendSpillRecord(sp.wbuf[:0], key, sum)
	off := sp.flushed + int64(len(sp.block))
	for rec := sp.wbuf; len(rec) > 0; {
		n := copy(sp.block[len(sp.block):spillBlockSize], rec)
		sp.block, rec = sp.block[:len(sp.block)+n], rec[n:]
		if len(sp.block) == spillBlockSize && !sp.flush() {
			return false
		}
	}
	if off < sp.base {
		// A record longer than a block had its head in a file a rebuild
		// discarded.
		return false
	}
	sp.insert(spillSlot{off: off, n: uint32(len(sp.wbuf)), hash: h})
	sp.bytes += int64(len(sp.wbuf))
	return true
}

// flush writes the pending block at the end of the file (creating the
// file on first use) and empties the block. A write the retries cannot
// absorb buys the one rebuild, which writes the block again at the start
// of a fresh file; a failure after that breaks the tier.
func (sp *memoSpill) flush() bool {
	if sp.write() != nil && (!sp.rebuild() || sp.write() != nil) {
		sp.breakTier()
		return false
	}
	sp.writes++
	sp.flushed += int64(len(sp.block))
	sp.block = sp.block[:0]
	return true
}

// write writes the pending block at the file's end, retrying transient
// faults.
func (sp *memoSpill) write() error {
	return sp.policy().Do(context.Background(), func() error {
		if sp.f == nil {
			f, err := sp.fsys.CreateTemp(sp.dir, "memospill-*.wfspill")
			if err != nil {
				return err
			}
			sp.f = f
		}
		n, err := sp.f.WriteAt(sp.block, sp.flushed-sp.base)
		if err == nil && n != len(sp.block) {
			err = io.ErrShortWrite
		}
		return err
	})
}

// insert links s into the index, growing it first past half load.
func (sp *memoSpill) insert(s spillSlot) {
	if 2*(sp.used+1) > len(sp.index) {
		sp.grow()
	}
	mask := uint64(len(sp.index) - 1)
	i := uint64(s.hash) & mask
	for sp.index[i].n != 0 {
		i = (i + 1) & mask
	}
	sp.index[i] = s
	sp.used++
}

// grow doubles the index (to 64 slots on first use) and relinks the
// slots that can still serve, leaving discarded records' behind.
func (sp *memoSpill) grow() {
	old := sp.index
	sp.index = make([]spillSlot, max(2*len(old), 64))
	sp.used = 0
	for _, s := range old {
		if s.n != 0 && s.off >= sp.base {
			sp.insert(s)
		}
	}
}

// load finds the entry spilled under key, whose hash's low 32 bits are h,
// and decodes it into the spill's own summary, valid until the next load.
// Each candidate slot of the hash is verified by its record's checksum
// and stored key: another key's record is a collision and the probe goes
// on; a failed checksum drops that record (a lost hit) while the rest of
// the spill keeps serving. A read the retries cannot absorb walks the
// same rebuild-then-break ladder as a write, and misses.
func (sp *memoSpill) load(key []byte, h uint32) (*summary, bool) {
	if sp.broken || sp.used == 0 {
		return nil, false
	}
	mask := uint64(len(sp.index) - 1)
	for i := uint64(h) & mask; sp.index[i].n != 0; i = (i + 1) & mask {
		s := &sp.index[i]
		if s.hash != h || s.off < sp.base {
			continue
		}
		rec, ok := sp.read(s.off, int(s.n))
		if !ok {
			return nil, false
		}
		got, ok := decodeSpillRecord(rec, &sp.sum)
		if !ok {
			s.off = -1
			sp.lost = true
			continue
		}
		if bytes.Equal(got, key) {
			return &sp.sum, true
		}
	}
	return nil, false
}

// read returns the n-byte record at logical offset off. A record wholly
// in the pending block is served in place; otherwise its head is read
// from the file into rbuf and its tail, if any, copied from the block.
func (sp *memoSpill) read(off int64, n int) ([]byte, bool) {
	if off >= sp.flushed {
		i := int(off - sp.flushed)
		return sp.block[i : i+n], true
	}
	if cap(sp.rbuf) < n {
		sp.rbuf = make([]byte, n)
	}
	buf := sp.rbuf[:n]
	head := buf[:min(int64(n), sp.flushed-off)]
	err := sp.policy().Do(context.Background(), func() error {
		_, rerr := sp.f.ReadAt(head, off-sp.base)
		return rerr
	})
	if err != nil {
		if !sp.rebuild() {
			sp.breakTier()
		}
		return nil, false
	}
	copy(buf[len(head):], sp.block)
	return buf, true
}

// rebuild discards the (unwritable or unreadable) spill file, once per
// tree: the next write starts a fresh one. Records already written are
// lost — the run degrades if there were any — but the pending block and
// its records survive, and the tier keeps absorbing future evictions.
func (sp *memoSpill) rebuild() bool {
	if sp.rebuilt {
		return false
	}
	sp.rebuilt = true
	sp.rebuilds++
	sp.removeFile()
	if sp.flushed > sp.base {
		sp.lost = true
	}
	sp.base = sp.flushed
	return true
}

// breakTier retires the spill for the rest of the tree: subsequent
// evictions degrade exactly as if no spill were configured, and the file
// is removed immediately so a long-lived process does not leak it.
func (sp *memoSpill) breakTier() {
	sp.broken = true
	sp.lost = true
	sp.removeFile()
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

// close deletes the spill file and forgets every record, written or
// pending (the tier is a cache private to one tree; nothing in it
// outlives the exploration).
func (sp *memoSpill) close() {
	sp.removeFile()
	if sp.used > 0 {
		clear(sp.index)
		sp.used = 0
	}
	sp.base, sp.flushed = 0, 0
	sp.block = sp.block[:0]
}

// ---- record codec ----

// appendSummary appends a summary's aggregate fields to b as varints:
// height, nodes, leaves, len(acc), acc values.
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

// decodeSummary is appendSummary's inverse into sum, whose counter
// storage it reuses; it accepts exactly the bytes appendSummary writes.
func decodeSummary(b []byte, sum *summary) bool {
	var f [3]int64 // height, nodes, leaves
	for i := range f {
		v, n := binary.Varint(b)
		if !minimal(b, n) {
			return false
		}
		f[i], b = v, b[n:]
	}
	cnt, n := binary.Uvarint(b)
	// Every acc value takes at least one byte: a count beyond the
	// remaining bytes is corrupt, and must not size an allocation.
	if !minimal(b, n) || cnt > uint64(len(b)-n) {
		return false
	}
	b = b[n:]
	sum.height, sum.nodes, sum.leaves = int(f[0]), f[1], f[2]
	sum.acc = slices.Grow(sum.acc[:0], int(cnt))[:cnt]
	for i := range sum.acc {
		v, n := binary.Varint(b)
		if !minimal(b, n) || v != int64(int32(v)) {
			return false
		}
		sum.acc[i], b = int32(v), b[n:]
	}
	return len(b) == 0
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
// key (aliasing rec) and the summary, decoded into sum. It accepts exactly
// the bytes appendSpillRecord writes; anything else — a failed checksum,
// a truncated or overlong field, trailing bytes — is ok=false, with sum
// unspecified.
func decodeSpillRecord(rec []byte, sum *summary) (key []byte, ok bool) {
	if len(rec) < sha256.Size {
		return nil, false
	}
	body := rec[:len(rec)-sha256.Size]
	if sha256.Sum256(body) != [sha256.Size]byte(rec[len(body):]) {
		return nil, false
	}
	klen, n := binary.Uvarint(body)
	if !minimal(body, n) || klen > uint64(len(body)-n) {
		return nil, false
	}
	key = body[n : n+int(klen)]
	if !decodeSummary(body[n+int(klen):], sum) {
		return nil, false
	}
	return key, true
}
