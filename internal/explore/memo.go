package explore

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"waitfree/internal/fsx"
)

// This file implements the per-tree configuration memo and the hash both
// of the explorer's hash tables use. The memo maps a configuration's id
// key (intern.go: the tree's fixed-width vector of state ids) to the
// settled summary of its subtree. Every table is owned by one explorer
// and driven from its goroutine only. Its contents are per tree: ids name
// states of one tree, so an entry is meaningless in another. Its storage
// is per explorer, which under ConsensusKContext is one per worker: reset
// empties the table between trees and keeps its pages, counter slab,
// index, free list and clock at their capacity.
//
// Nothing in a memo entry is a pointer. Entries are named by dense int32
// ids and live in pages of two parallel arrays: the keys, inline at
// id*width in one byte array, and the records (memoRec), which hold the
// entry's state, its key's hash and its summary — height, nodes, leaves
// and the place of its access counters in an int32 slab (accSlab,
// arena.go). So the GC never scans a page, and settling or evicting an
// entry writes no pointer. A linear-probing index of id+1 values (0 =
// empty slot) points into the pages; a probe compares the stored hash,
// then the inline key. Growing the index and deleting from it
// (backward-shift deletion, no tombstones) read the stored hash and never
// rehash a key.
//
// dfs makes one memo call per node: acquire hashes the key once and probes
// once, returning either a hit, a gray entry (the configuration is on the
// DFS stack), or the id of a freshly inserted gray entry; settle or drop
// then finishes the node by id, without hashing again. Resident hits and
// misses allocate nothing once the pages are warm.

// hashMul and hashMul2 are the odd 64-bit multipliers of hashKey's two
// lanes.
const (
	hashMul  = 0x9e3779b97f4a7c15
	hashMul2 = 0xc2b2ae3d27d4eb4f
)

// hashKey hashes kb eight bytes at a time in two independent lanes, so
// their multiplies overlap: each word is folded into its lane by an xor
// and a multiply, a bijection of the lane, so two keys of one length that
// differ in a single word never collide. murmur3's 64-bit finalizer then
// spreads every bit of the joined lanes over the low bits the index uses.
// It is unseeded, so a table's layout is the same in every run.
func hashKey(kb []byte) uint64 {
	a, b := uint64(len(kb))*hashMul, uint64(hashMul2)
	for ; len(kb) >= 16; kb = kb[16:] {
		a = (a ^ binary.LittleEndian.Uint64(kb)) * hashMul
		b = (b ^ binary.LittleEndian.Uint64(kb[8:])) * hashMul2
	}
	if len(kb) >= 8 {
		a = (a ^ binary.LittleEndian.Uint64(kb)) * hashMul
		kb = kb[8:]
	}
	if len(kb) >= 4 {
		b = (b ^ uint64(binary.LittleEndian.Uint32(kb))) * hashMul2
		kb = kb[4:]
	}
	for _, c := range kb {
		a = (a ^ uint64(c)) * hashMul
	}
	h := a ^ bits.RotateLeft64(b, 31)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Entry pages hold memoPageSize entries each, so a big table's entries are
// never copied to grow; page 0 alone starts at memoFirstPage entries and
// grows fourfold when full, so a small tree allocates little.
const (
	memoPageShift = 10
	memoPageSize  = 1 << memoPageShift
	memoFirstPage = 32
)

// Memo entry states, the low memoLenShift bits of memoRec.meta. The low
// two (memoStateMask) say whether an id is free, gray (its configuration
// is on the DFS stack) or cached (settled); memoRef and memoSpilled are
// flags of a cached entry: its second-chance bit (a hit sets it, the
// eviction clock clears it) and whether its summary is already in the
// spill tier (a re-eviction after a spill load never rewrites it).
const (
	memoFree uint32 = iota
	memoGray
	memoCached

	memoStateMask uint32 = 3
	memoRef       uint32 = 1 << 2
	memoSpilled   uint32 = 1 << 3
	memoLenShift         = 4
)

// memoRec is one entry's record: everything but the key, and no pointer,
// in 32 bytes, so a record never straddles a cache line. The summary's
// fields share the record rather than parallel arrays of their own, so a
// hit reads one record and its counters. meta holds the entry's state in
// its low memoLenShift bits and its counter count above them (a count is
// the size of the tree's counter table, one interned key per object, per
// process and per operation of each object, far below 1<<28). accOff
// names the counters' region in the table's slab, 0 for none; the region
// is kept when the id is freed, and reused by the next entry of the id
// whose counters fit.
type memoRec struct {
	nodes, leaves int64
	height        int32
	accOff        uint32
	hash          uint32 // the low 32 bits of hashKey(key)
	meta          uint32
}

// memoPage is one page of entries: keys[i*width:(i+1)*width] and recs[i]
// belong to entry (page<<memoPageShift)+i.
type memoPage struct {
	keys []byte
	recs []memoRec
}

// memoFound is what acquire found for a key.
type memoFound uint8

const (
	memoMiss    memoFound = iota // inserted as a fresh gray entry
	memoOnStack                  // a gray entry: the configuration repeats along the path
	memoHit                      // a cached summary, resident or reloaded from the spill tier
)

// memoTable is the per-tree configuration memo. An entry is free (its id
// on the free list), gray (on the DFS stack) or cached (counted against
// the budget and, in a budgeted table, referenced exactly once from the
// clock). Every key of one tree has the same width, fixed by the first
// acquire after a reset, so a freed entry's key slot always fits the next
// key that reuses it. Ids are handed out in insertion order and, once
// freed (drop and eviction), reused LIFO.
//
// A positive budget caps the number of cached entries. Gray entries are
// the DFS stack: they never count toward the budget and are never
// evicted, so cycle detection stays exact at any budget. When a settle
// would exceed the budget, cached entries are reclaimed one at a time in
// settle order with a second chance (an entry hit since its last
// consideration is requeued instead of dropped) — amortized O(1) per
// insert, never a full-table scan. Eviction order depends only on the
// acquire/settle/drop sequence, not on hash placement or entry ids, so an
// exploration evicts deterministically and budgeted reports stay
// identical at every parallelism level. A freed entry's id, key slot and
// counter region are reused by the next insert, so a budgeted table's
// memory stays bounded by its budget plus the DFS depth.
//
// With a spill tier (Options.MemoSpillDir) evicted entries move to a
// checksummed disk file instead of being forgotten, and a later acquire
// serves them back — the budget then trades memory for disk, MemoHits
// match the unbounded run, and the table never degrades. Without one,
// eviction loses memo hits and the table is flagged degraded.
type memoTable struct {
	width  int // key bytes per entry
	pages  []memoPage
	nextID int32   // entries ever allocated: ids [0, nextID) exist
	free   []int32 // ids of free entries, reused LIFO
	index  []int32 // id+1 per slot, 0 = empty; len is a power of two
	live   int     // entries linked into the index
	acc    accSlab // the cached summaries' access counters

	budget int
	count  int // cached entries: the budgeted population

	// clock is the second-chance queue of cached entry ids in settle
	// order, consumed from clockHead (budgeted tables only).
	clock     []int32
	clockHead int

	degraded bool       // an eviction lost an entry for good
	spill    *memoSpill // nil when spill is off

	// Eviction telemetry, exported via Stats and pinned by the
	// no-evict-storm regression test: evictions counts entries actually
	// reclaimed, evictScans counts clock entries examined (eviction work),
	// spilled counts entries written to the spill tier.
	evictions  int64
	evictScans int64
	spilled    int64
}

// reset empties the table for the next tree, under a budget and spill
// directory (see Options.MemoBudget and MemoSpillDir). The pages, counter
// slab, index, free list and clock keep their storage; the first key of
// the tree fixes the width anew. A spill tier starts fresh, with no file
// until its first eviction: the last tree's was deleted by release, and a
// spilled entry of one tree must never serve another.
func (t *memoTable) reset(budget int, spillDir string, fsys fsx.FS) {
	t.width = -1
	t.nextID, t.live, t.count = 0, 0, 0
	t.free = t.free[:0]
	clear(t.index)
	t.acc.reset()
	t.budget = budget
	t.clock, t.clockHead = t.clock[:0], 0
	t.degraded = false
	t.evictions, t.evictScans, t.spilled = 0, 0, 0
	switch {
	case spillDir == "" || budget == 0:
		t.spill = nil
	case t.spill == nil:
		t.spill = newMemoSpill(spillDir, fsys)
	default:
		t.spill.reset(spillDir, fsys)
	}
}

// isDegraded reports whether this tree's memo lost entries for good:
// either an eviction fell through with no (working) spill tier, or the
// spill tier itself lost spilled entries (a rebuild, a dropped corrupt
// record, or a broken tier).
func (t *memoTable) isDegraded() bool {
	return t.degraded || (t.spill != nil && t.spill.lost)
}

// release ends the table's tree, deleting the spill file if one was
// created. The storage stays for the next reset.
func (t *memoTable) release() {
	if t.spill != nil {
		t.spill.close()
	}
}

// rec returns the record of entry id. The pointer is valid until the next
// insert (page 0 grows by copying).
func (t *memoTable) rec(id int32) *memoRec {
	return &t.pages[id>>memoPageShift].recs[id&(memoPageSize-1)]
}

// key returns the inline key of entry id.
func (t *memoTable) key(id int32) []byte {
	i := int(id&(memoPageSize-1)) * t.width
	return t.pages[id>>memoPageShift].keys[i : i+t.width : i+t.width]
}

// view returns the summary rec holds. Its counters alias the table's slab:
// they stay valid until the next settle, which may reuse the region.
func (t *memoTable) view(rec *memoRec) summary {
	return summary{height: int(rec.height), nodes: rec.nodes, leaves: rec.leaves, acc: t.acc.at(rec.accOff, int(rec.meta>>memoLenShift))}
}

// acquire looks kb up with one hash and one probe. A resident hit returns
// the stored summary and sets the entry's second-chance bit; a gray entry
// is reported as memoOnStack. On a resident miss the spill tier is
// consulted; a spilled summary is decoded, re-admitted as a cached entry
// (possibly evicting another), and served — still a hit. Otherwise kb is
// copied into the table as a gray entry and its id returned, for the
// caller to finish with settle or drop. kb is not retained, and a hit's
// counters are valid until the next settle.
func (t *memoTable) acquire(kb []byte) (hit summary, id int32, found memoFound) {
	if t.width != len(kb) {
		if t.width >= 0 {
			panic("explore: memo keys of one tree differ in width")
		}
		if len(t.pages) > 0 && len(t.pages[0].keys) != len(kb)*len(t.pages[0].recs) {
			// The last tree's keys had another width: its key slots
			// do not fit this tree's.
			clear(t.pages)
			t.pages = t.pages[:0]
		}
		t.width = len(kb)
	}
	id, h, slot := t.find(kb)
	if id >= 0 {
		rec := t.rec(id)
		if rec.meta&memoStateMask == memoGray {
			return summary{}, id, memoOnStack
		}
		rec.meta |= memoRef
		return t.view(rec), -1, memoHit
	}
	if t.budget > 0 && t.clock == nil {
		// First use: size the clock for the index, so small trees skip
		// append's 1, 2, 4, ... regrowth.
		t.clock = make([]int32, 0, len(t.index)/2)
	}
	id = t.add(kb, h, slot)
	if t.spill != nil {
		if sum, ok := t.spill.load(kb); ok {
			// Served from the decoded copy: the admission may evict the
			// entry again at once.
			t.admit(id, sum, memoSpilled)
			return *sum, -1, memoHit
		}
	}
	return summary{}, id, memoMiss
}

// find looks kb up with one hash and one probe run. It returns kb's id, or
// -1 and the empty slot where add must link it. The index is grown first
// if one more entry would pass half load, so the slot stays valid for an
// add that follows at once.
func (t *memoTable) find(kb []byte) (id int32, h uint64, slot uint64) {
	if 2*(t.live+1) > len(t.index) {
		t.grow()
	}
	h = hashKey(kb)
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for s := t.index[i]; s != 0; s = t.index[i] {
		if t.rec(s-1).hash == uint32(h) && bytes.Equal(t.key(s-1), kb) {
			return s - 1, h, i
		}
		i = (i + 1) & mask
	}
	return -1, h, i
}

// add copies kb into a free entry (or a new one), marks it gray and links
// it at slot, which find returned for kb with no table change since.
func (t *memoTable) add(kb []byte, h, slot uint64) int32 {
	var id int32
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		id = t.nextID
		t.nextID++
		p := int(id >> memoPageShift)
		if p == len(t.pages) {
			t.pages = append(t.pages, memoPage{})
		}
		if pg := &t.pages[p]; int(id&(memoPageSize-1)) == len(pg.recs) {
			// Pages are made at full length, so an insert writes no
			// slice header; only page 0 grows, by copying.
			size := memoPageSize
			if p == 0 {
				size = min(max(4*len(pg.recs), memoFirstPage), memoPageSize)
			}
			keys, recs := make([]byte, size*t.width), make([]memoRec, size)
			copy(keys, pg.keys)
			copy(recs, pg.recs)
			pg.keys, pg.recs = keys, recs
		}
		// A reset table's record may still name the last tree's counter
		// region.
		t.pages[p].recs[id&(memoPageSize-1)].accOff = 0
	}
	copy(t.key(id), kb)
	rec := t.rec(id)
	rec.hash, rec.meta = uint32(h), memoGray
	t.index[slot] = id + 1
	t.live++
	return id
}

// settle turns gray entry id into a cached entry holding a copy of sum.
func (t *memoTable) settle(id int32, sum *summary) {
	t.admit(id, sum, 0)
}

// admit copies sum into gray entry id, which becomes cached with the
// given flags, and evicts if the budget is exceeded.
func (t *memoTable) admit(id int32, sum *summary, flags uint32) {
	rec := t.rec(id)
	n := len(sum.acc)
	if n > 0 && (rec.accOff == 0 || n > t.acc.capOf(rec.accOff)) {
		rec.accOff = t.acc.alloc(n)
	}
	copy(t.acc.at(rec.accOff, n), sum.acc)
	rec.height, rec.nodes, rec.leaves = int32(sum.height), sum.nodes, sum.leaves
	rec.meta = uint32(n)<<memoLenShift | memoCached | flags
	t.count++
	if t.budget > 0 { // an unbudgeted table never evicts: no clock
		t.clockPush(id)
		if t.count > t.budget {
			t.evict()
		}
	}
}

// drop removes gray entry id (a subtree that errored: its configuration
// leaves the stack without a summary).
func (t *memoTable) drop(id int32) {
	t.remove(id)
}

// remove unlinks id from the index and returns it to the free list,
// keeping its key slot and counter region for reuse.
func (t *memoTable) remove(id int32) {
	t.unlink(id)
	t.rec(id).meta = memoFree
	t.free = append(t.free, id)
	t.live--
}

// unlink removes id's slot from the index with backward-shift deletion:
// later members of the probe run move into the hole whenever that keeps
// them reachable from their home slot, so no tombstones accumulate.
func (t *memoTable) unlink(id int32) {
	mask := uint64(len(t.index) - 1)
	i := uint64(t.rec(id).hash) & mask
	for t.index[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := uint64(t.rec(t.index[j]-1).hash) & mask
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		var stays bool
		if i <= j {
			stays = i < home && home <= j
		} else {
			stays = home > i || home <= j
		}
		if !stays {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// grow doubles the index (to 64 slots on first use) and relinks every
// entry of the old index by its stored hash.
func (t *memoTable) grow() {
	old := t.index
	n := max(2*len(old), 64)
	t.index = make([]int32, n)
	mask := uint64(n - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := uint64(t.rec(s-1).hash) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = s
	}
}

// evict reclaims cached entries until the count is back within budget:
// pop the oldest clock id; requeue it if its second-chance bit is set,
// spill or forget it otherwise. Each pop either retires an entry or
// clears a bit a hit set, so eviction work is amortized O(1) per insert —
// the no-evict-storm guarantee.
func (t *memoTable) evict() {
	for t.count > t.budget && t.clockHead < len(t.clock) {
		id := t.clock[t.clockHead]
		t.clockHead++
		if t.clockHead == len(t.clock) {
			t.clock = t.clock[:0]
			t.clockHead = 0
		}
		t.evictScans++
		rec := t.rec(id)
		if rec.meta&memoRef != 0 {
			rec.meta &^= memoRef
			t.clockPush(id) // second chance
			continue
		}
		t.count--
		t.evictions++
		// A failed spill write loses the entry after all, so the run
		// degrades exactly as without a spill tier.
		if t.spill != nil && (rec.meta&memoSpilled != 0 || t.spillStore(id, rec)) {
			t.spilled++
		} else {
			t.degraded = true
		}
		t.remove(id)
	}
}

// spillStore writes entry id's key and summary to the spill tier.
func (t *memoTable) spillStore(id int32, rec *memoRec) bool {
	sum := t.view(rec)
	return t.spill.store(t.key(id), &sum)
}

// clockPush appends id to the clock, first compacting the consumed prefix
// away when the backing array is full and at least half consumed, so the
// queue's memory tracks the cached population instead of the insert count.
func (t *memoTable) clockPush(id int32) {
	if len(t.clock) == cap(t.clock) && t.clockHead >= len(t.clock)/2 && t.clockHead > 0 {
		n := copy(t.clock, t.clock[t.clockHead:])
		t.clock = t.clock[:n]
		t.clockHead = 0
	}
	t.clock = append(t.clock, id)
}

// grayKeys returns the keys currently marked on-stack (test hook: after a
// run no gray marks may survive, or a later acquire of a marked key would
// report a phantom cycle).
func (t *memoTable) grayKeys() []string {
	var out []string
	for id := int32(0); id < t.nextID; id++ {
		if t.rec(id).meta&memoStateMask == memoGray {
			out = append(out, string(t.key(id)))
		}
	}
	return out
}
