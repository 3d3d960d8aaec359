package explore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"

	"waitfree/internal/types"
)

// This file implements the interned configuration layout. Every distinct
// object state and every distinct process control state a tree reaches is
// stored once, in one of the explorer's two intern tables (keyTable below),
// keyed on its key-encoder segment (key.go) and named by a dense int32 id.
// A configuration is then two pointer-free id vectors: saving and
// restoring one around an in-place edge copies ints, with no write
// barriers, and its memo key is the vector itself, fixed-width for the
// whole tree (the COLLAPSE idea of Holzmann's "State Compression in SPIN",
// SPIN'97). The hot path reaches the intern tables only on a cache miss:
// the transition and step caches (arena.go) hand out successor ids by
// index, so a warm edge neither encodes nor hashes a segment.
//
// Soundness rests on the contract the memo and both caches already share:
// segment encoding is injective, so two states get one id exactly when
// their segments are equal, and two configurations get one id key exactly
// when their segment concatenations are equal. That concatenation is
// still what keyHex renders for diagnostics.
//
// Walk alone steps processes without interning them: a walk visits most
// states once, so interning would encode a segment and grow the table on
// nearly every step, for step-cache hits it rarely gets. Each process's
// one live state sits in e.scratch, and its id in the config is the
// scratch reference ^p; Walk, which never backtracks, mutates the slot in
// place. Every DFS interns, history runs included: their histories are
// rendered from the path (Leaf.History). Object states are interned in
// every run — the transition cache keys on them, and their count is
// bounded by the objects' state spaces.

// keyTable is an intern table: an open-addressing hash table from
// variable-length byte keys (component segments) to dense int32 ids,
// handed out in insertion order, each carrying a V. Entries are never
// removed. The zero value is ready to use.
//
// Entries live in pages of memoPageSize and are named by their ids. A
// linear-probing index of id+1 values (0 = empty slot) points into them;
// each entry keeps its key bytes — copied once, into a key arena the
// table owns — next to their hashKey, so growing the index never rehashes
// a key.
type keyTable[V any] struct {
	pages  [][]keyEntry[V]
	nextID int32   // entries allocated: ids [0, nextID) exist
	index  []int32 // id+1 per slot, 0 = empty; len is a power of two
	keys   []byte  // the chunk the entries' keys are cut from (carve)
}

// reset empties the table for the next tree, keeping its pages, index and
// last key chunk.
func (t *keyTable[V]) reset() {
	for i := range t.pages {
		clear(t.pages[i])
		t.pages[i] = t.pages[i][:0]
	}
	t.nextID = 0
	clear(t.index)
	t.keys = t.keys[:0]
}

// keyEntry is one entry of a keyTable: the table's own copy of the key,
// its hash, and the id's value.
type keyEntry[V any] struct {
	key  []byte
	hash uint64
	val  V
}

// find looks kb up with one hash and one probe run. It returns kb's id, or
// -1 and the empty slot where add must link it. The index is grown first
// if one more entry would pass half load, so the slot stays valid for an
// add that follows at once.
func (t *keyTable[V]) find(kb []byte) (id int32, h, slot uint64) {
	if 2*(int(t.nextID)+1) > len(t.index) {
		t.grow()
	}
	h = hashKey(kb)
	mask := uint64(len(t.index) - 1)
	i := h & mask
	for s := t.index[i]; s != 0; s = t.index[i] {
		if e := t.entry(s - 1); e.hash == h && bytes.Equal(e.key, kb) {
			return s - 1, h, i
		}
		i = (i + 1) & mask
	}
	return -1, h, i
}

// add copies kb into a new entry holding v and links it at slot, which
// find returned for kb with no table change since.
func (t *keyTable[V]) add(kb []byte, h, slot uint64, v V) int32 {
	id := t.nextID
	t.nextID++
	p := int(id >> memoPageShift)
	if p == len(t.pages) {
		size := memoPageSize
		if p == 0 {
			size = 32
		}
		t.pages = append(t.pages, make([]keyEntry[V], 0, size))
	}
	key := carve(&t.keys, len(kb), 2*1024)
	copy(key, kb)
	t.pages[p] = append(t.pages[p], keyEntry[V]{key: key, hash: h, val: v})
	t.index[slot] = id + 1
	return id
}

// entry returns the entry named id.
func (t *keyTable[V]) entry(id int32) *keyEntry[V] {
	return &t.pages[id>>memoPageShift][id&(memoPageSize-1)]
}

// grow doubles the index (to 64 slots on first use) and relinks every
// entry by its stored hash.
func (t *keyTable[V]) grow() {
	n := max(2*len(t.index), 64)
	t.index = make([]int32, n)
	mask := uint64(n - 1)
	for id := int32(0); id < t.nextID; id++ {
		i := t.entry(id).hash & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = id + 1
	}
}

// procInfo is one interned process state together with the id of its
// crash edge (this state with Crashed set), derived on first use; -1
// until computed.
type procInfo struct {
	ps      procState
	crashed int32
}

// procMeta is what the DFS reads of an interned process state at every
// node: whether it is done, crashed or has stepped, its recovery count and
// its pending object, with two ids derived on first use instead of once
// per edge (-1 until computed): inv, the transition-cache id of the
// pending invocation, and opAcc, the access-counter id of (pending object,
// operation). The metas form one pointer-free array indexed by
// process-state id (e.procMeta), so a node's scan of its processes reads
// a few words per process, not the interned procState.
type procMeta struct {
	recoveries int32
	obj        int32
	inv        int32
	opAcc      int32
	flags      uint8
}

// procMeta flags.
const (
	metaDone uint8 = 1 << iota
	metaCrashed
	metaStepped
)

// newProcMeta returns the meta of process state ps.
func newProcMeta(ps *procState) procMeta {
	m := procMeta{recoveries: int32(ps.Recoveries), obj: int32(ps.Pending.Obj), inv: -1, opAcc: -1}
	if ps.Done {
		m.flags |= metaDone
	}
	if ps.Crashed {
		m.flags |= metaCrashed
	}
	if ps.Stepped {
		m.flags |= metaStepped
	}
	return m
}

// scratchRef is the id a Walk's config holds for process p.
func scratchRef(p int) int32 { return ^int32(p) }

// internObj returns the id of object state s, interning it on first
// sight. Equal segments get the first-interned value as their canonical
// state.
func (e *explorer) internObj(s types.State) int32 {
	e.segScratch = e.enc.appendAny(e.segScratch[:0], s)
	id, h, slot := e.objTab.find(e.segScratch)
	if id < 0 {
		id = e.objTab.add(e.segScratch, h, slot, s)
	}
	return id
}

// internProc returns the id of process state ps, interning a copy of it on
// first sight.
func (e *explorer) internProc(ps *procState) int32 {
	e.segScratch = e.enc.appendProc(e.segScratch[:0], ps)
	id, h, slot := e.procTab.find(e.segScratch)
	if id < 0 {
		id = e.procTab.add(e.segScratch, h, slot, procInfo{ps: *ps, crashed: -1})
		e.procMeta = append(e.procMeta, newProcMeta(ps))
	}
	return id
}

// obj returns the canonical object state named id.
func (e *explorer) obj(id int32) types.State { return e.objTab.entry(id).val }

// proc returns the process state named id: an interned state, or a
// Walk's scratch slot. Interned states are shared by every config
// holding the id and must never be written through the pointer, which is
// valid only until the next internProc (the table's first page grows by
// appending).
func (e *explorer) proc(id int32) *procState {
	if id < 0 {
		return &e.scratch[^id]
	}
	return &e.procTab.entry(id).val.ps
}

// pendingInv returns the transition-cache id of process p's pending
// invocation in c, computed once per interned state (and per step for a
// Walk's scratch states).
func (e *explorer) pendingInv(c *config, p int) int32 {
	id := c.procs[p]
	if id < 0 {
		return e.invs.id(e.scratch[p].Pending.Inv)
	}
	m := &e.procMeta[id]
	if m.inv < 0 {
		m.inv = e.invs.id(e.proc(id).Pending.Inv)
	}
	return m.inv
}

// pendingOpAcc returns the access-counter id of the pending access of
// interned process state id — (object, operation) — computed once per
// state. It takes the id, not a config, because the DFS asks at the
// child, where the stepping process has already moved on (eachEdge's
// old). Only the DFS counts accesses.
func (e *explorer) pendingOpAcc(id int32) int32 {
	m := &e.procMeta[id]
	if m.opAcc < 0 {
		m.opAcc = e.acct.id(accKey{Obj: int(m.obj), Op: e.proc(id).Pending.Inv.Op})
	}
	return m.opAcc
}

// crashedID returns the id of interned process state id with Crashed set.
func (e *explorer) crashedID(id int32) int32 {
	if cid := e.procTab.entry(id).val.crashed; cid >= 0 {
		return cid
	}
	ps := e.procTab.entry(id).val.ps
	ps.Crashed = true
	cid := e.internProc(&ps)
	e.procTab.entry(id).val.crashed = cid // re-fetched: the intern may move page 0
	return cid
}

// idSet gives the values of a small per-tree set — the invocations and
// responses the caches key on — dense int32 ids; vals[id] is the value.
// The zero value is ready to use.
type idSet[T comparable] struct {
	ids  map[T]int32
	vals []T
}

// id returns v's id, assigning the next one on first sight.
func (s *idSet[T]) id(v T) int32 {
	id, ok := s.ids[v]
	if !ok {
		if s.ids == nil {
			s.ids = make(map[T]int32)
		}
		id = int32(len(s.vals))
		s.ids[v] = id
		s.vals = append(s.vals, v)
	}
	return id
}

// reset empties the set, keeping its storage.
func (s *idSet[T]) reset() {
	clear(s.ids)
	s.vals = s.vals[:0]
}

// idKey renders c's memo key into the explorer's reused buffer: the object
// ids, then the process ids, four little-endian bytes each. Every key of a
// tree has the same width, so no separator is needed, and the buffer is
// written in place (storing a resliced buffer back into the explorer would
// cost a write barrier per node). The returned slice is invalidated by the
// next idKey call.
func (e *explorer) idKey(c *config) []byte {
	n := len(c.objs)
	if w := 4 * (n + len(c.procs)); len(e.keyBuf) != w {
		e.keyBuf = make([]byte, w)
	}
	b := e.keyBuf
	for i, id := range c.objs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(id))
	}
	for i, id := range c.procs {
		binary.LittleEndian.PutUint32(b[4*(n+i):], uint32(id))
	}
	return b
}

// appendSegKey appends c's segment concatenation — object segments,
// separator, process segments — to b: the key the id key stands for. A
// Walk's scratch states have no segment and are encoded with a fresh
// encoder.
func (e *explorer) appendSegKey(b []byte, c *config) []byte {
	for _, id := range c.objs {
		b = append(b, e.objTab.entry(id).key...)
	}
	b = append(b, tagSep)
	var fresh keyEncoder
	for _, id := range c.procs {
		if id < 0 {
			b = fresh.appendProc(b, e.proc(id))
			continue
		}
		b = append(b, e.procTab.entry(id).key...)
	}
	return b
}

// keyHex renders c's segment key as hex for diagnostics (panic context,
// stall heartbeats). It builds the key in a fresh buffer and reads only
// settled table entries, so it is safe even after a panic mid-encode.
func (e *explorer) keyHex(c *config) string {
	return hex.EncodeToString(e.appendSegKey(nil, c))
}
