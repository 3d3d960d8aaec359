package explore

import (
	"bytes"
	"hash/maphash"

	"waitfree/internal/fsx"
)

// This file implements the configuration memo: an open-addressing hash
// table keyed directly on the arena bytes flatKey assembles, owned by one
// explorer (one execution tree) and driven from its goroutine only.
//
// Entries live in dense pages and are named by stable int32 ids. A
// linear-probing index of id+1 values (0 = empty slot) points into them;
// each entry keeps its key bytes — copied once, into a key arena
// the table owns — next to their hash, so growing the index and deleting
// from it (backward-shift deletion, no tombstones) never rehash a key.
// dfs makes one call per node: acquire hashes the key once and probes
// once, returning either a hit or the id of a freshly inserted gray entry;
// settle or drop then finishes the node by id, without hashing again.
// Resident hits and misses allocate nothing once the arena is warm.

// grayMark is the sentinel stored while a configuration is on the current
// DFS stack; encountering it again along one path is a cycle (the
// implementation is not wait-free).
var grayMark = &summary{}

// memoEntry is one slot of the table's entry pages. An entry is free
// (sum == nil, its id on the free list), gray (sum == grayMark: on the DFS
// stack), or cached (any other sum: counted against the budget and, in a
// budgeted table, referenced exactly once from the clock). A cached
// entry's second-chance bit is its summary's ref field.
type memoEntry struct {
	key  []byte // the table's own copy; the buffer is kept across reuse
	hash uint64
	sum  *summary
}

// Entry pages hold memoPageSize entries each, so a big tree's entries are
// never copied to grow; page 0 alone grows by appending, so a small tree
// allocates only what it uses.
const (
	memoPageShift = 10
	memoPageSize  = 1 << memoPageShift
)

// memoTable is the per-tree configuration memo.
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
// identical at every parallelism level. A freed entry's id and key buffer
// are reused by the next insert, so a budgeted table's memory stays
// bounded by its budget plus the DFS depth.
//
// With a spill tier (Options.MemoSpillDir) evicted entries move to a
// checksummed disk file instead of being forgotten, and a later acquire
// serves them back — the budget then trades memory for disk, MemoHits
// match the unbounded run, and the table never degrades. Without one,
// eviction loses memo hits and the table is flagged degraded.
type memoTable struct {
	seed   maphash.Seed
	budget int

	pages  [][]memoEntry
	nextID int32     // entries ever allocated: ids [0, nextID) exist
	free   []int32   // ids of free entries, reused LIFO
	index  []int32   // id+1 per slot, 0 = empty; len is a power of two
	live   int       // gray + cached entries
	count  int       // cached entries: the budgeted population
	keys   byteArena // backing store of the entries' key buffers

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

func newMemoTable(budget int, spillDir string, fsys fsx.FS) *memoTable {
	t := &memoTable{seed: maphash.MakeSeed(), budget: budget}
	if spillDir != "" && budget > 0 {
		t.spill = newMemoSpill(spillDir, fsys)
	}
	return t
}

// isDegraded reports whether this tree's memo lost entries for good:
// either an eviction fell through with no (working) spill tier, or the
// spill tier itself lost spilled entries (a rebuild, a dropped corrupt
// record, or a broken tier).
func (t *memoTable) isDegraded() bool {
	return t.degraded || (t.spill != nil && t.spill.lost)
}

// release tears the table down at tree completion, deleting the spill file
// if one was created.
func (t *memoTable) release() {
	if t.spill != nil {
		t.spill.close()
	}
}

// acquire looks kb up with one hash and one probe. A resident hit returns
// the stored summary — grayMark for a configuration on the DFS stack — and
// sets a cached entry's second-chance bit. On a resident miss the spill
// tier is consulted; a spilled summary is decoded, re-admitted as a cached
// entry (possibly evicting another), and served — still a hit. Otherwise
// kb is copied into the table as a gray entry and its id returned, for the
// caller to finish with settle or drop. kb is not retained.
func (t *memoTable) acquire(kb []byte) (hit *summary, id int32) {
	if 2*(t.live+1) > len(t.index) {
		t.grow()
	}
	h := maphash.Bytes(t.seed, kb)
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for s := t.index[i]; s != 0; s = t.index[i] {
		if e := t.entry(s - 1); e.hash == h && bytes.Equal(e.key, kb) {
			if e.sum != grayMark {
				e.sum.ref = true
			}
			return e.sum, -1
		}
		i = (i + 1) & mask
	}
	id = t.alloc(kb, h)
	t.index[i] = id + 1
	if t.spill != nil {
		if sum, ok := t.spill.load(kb); ok {
			sum.spilled = true // already on disk; never rewrite on re-evict
			t.settle(id, sum)
			return sum, -1
		}
	}
	return nil, id
}

// settle turns gray entry id into a cached entry holding sum. The memo
// owns sum from here on: the explorer's free list must never recycle it
// (a later hit would observe the reuse).
func (t *memoTable) settle(id int32, sum *summary) {
	sum.retained = true
	t.entry(id).sum = sum
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
	t.unlink(id)
	t.freeEntry(id)
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
		e := t.entry(id)
		sum := e.sum
		if sum.ref {
			sum.ref = false
			t.clockPush(id) // second chance
			continue
		}
		t.unlink(id)
		t.count--
		t.evictions++
		// The spill tier copies the key before freeEntry lets the next
		// insert overwrite its buffer. A failed spill write loses the entry
		// after all, so the run degrades exactly as without a spill tier.
		if t.spill != nil && (sum.spilled || t.spill.store(e.key, sum)) {
			t.spilled++
		} else {
			t.degraded = true
		}
		t.freeEntry(id)
	}
}

// entry returns the entry named id.
func (t *memoTable) entry(id int32) *memoEntry {
	return &t.pages[id>>memoPageShift][id&(memoPageSize-1)]
}

// alloc takes a free entry (or a new one), copies kb into its key buffer —
// in place when the buffer a freed entry left behind is large enough —
// and marks it gray.
func (t *memoTable) alloc(kb []byte, h uint64) int32 {
	var id int32
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		id = t.nextID
		t.nextID++
		p := int(id >> memoPageShift)
		if p == len(t.pages) {
			size := memoPageSize
			if p == 0 {
				size = 32
			}
			t.pages = append(t.pages, make([]memoEntry, 0, size))
		}
		t.pages[p] = append(t.pages[p], memoEntry{})
	}
	e := t.entry(id)
	if cap(e.key) >= len(kb) {
		e.key = append(e.key[:0], kb...)
	} else {
		c := len(kb)
		if t.budget > 0 {
			// Budgeted entries are recycled: slack lets the next,
			// slightly longer key reuse the buffer instead of stranding it.
			c += c / 4
		}
		e.key = t.keys.saveCap(kb, c)
	}
	e.hash, e.sum = h, grayMark
	t.live++
	return id
}

// freeEntry returns an unlinked entry's id to the free list, keeping its
// key buffer for reuse.
func (t *memoTable) freeEntry(id int32) {
	t.entry(id).sum = nil
	t.free = append(t.free, id)
	t.live--
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

// unlink removes id's slot from the index with backward-shift deletion:
// later members of the probe run move into the hole whenever that keeps
// them reachable from their home slot, so no tombstones accumulate.
func (t *memoTable) unlink(id int32) {
	mask := uint64(len(t.index) - 1)
	i := t.entry(id).hash & mask
	for t.index[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		home := t.entry(t.index[j]-1).hash & mask
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

// grow doubles the index (to 64 slots on first use) and reinserts every
// live entry by its stored hash.
func (t *memoTable) grow() {
	n := 2 * len(t.index)
	if n == 0 {
		n = 64
		if t.budget > 0 {
			// First use: size the clock for the index, so small trees skip
			// append's 1, 2, 4, ... regrowth.
			t.clock = make([]int32, 0, n/2)
		}
	}
	t.index = make([]int32, n)
	mask := uint64(n - 1)
	for id := int32(0); id < t.nextID; id++ {
		e := t.entry(id)
		if e.sum == nil {
			continue
		}
		i := e.hash & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = id + 1
	}
}

// grayKeys returns the keys currently marked on-stack (test hook: after a
// run no gray marks may survive, or a later exploration reusing the table
// would report a phantom cycle).
func (t *memoTable) grayKeys() []string {
	var out []string
	for id := int32(0); id < t.nextID; id++ {
		if e := t.entry(id); e.sum == grayMark {
			out = append(out, string(e.key))
		}
	}
	return out
}
