package explore

import (
	"encoding/binary"
	"encoding/hex"

	"waitfree/internal/types"
)

// This file implements the interned configuration layout. Every distinct
// object state and every distinct process control state a tree reaches is
// stored once, in one of the explorer's two intern tables (keyTables,
// memo.go), keyed on its key-encoder segment (key.go) and named by a dense
// int32 id. A configuration is then two pointer-free id vectors: saving
// and restoring one around an in-place edge copies ints, with no write
// barriers, and its memo key is the vector itself, fixed-width for the
// whole tree (the COLLAPSE idea of Holzmann's "State Compression in
// SPIN", SPIN'97).
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
// rendered from the path (historyView). Object states are interned in
// every run — the transition cache keys on them, and their count is
// bounded by the objects' state spaces.

// procInfo is one interned process state together with ids the hot path
// derives from it once, on first use, instead of once per edge. Each
// derived id is -1 until computed.
type procInfo struct {
	ps procState
	// inv is the transition-cache id of the pending invocation, and opAcc
	// the access-counter id of (pending object, operation).
	inv   int32
	opAcc int32
	// crashed is the id of this state with Crashed set: the crash edge.
	crashed int32
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
		id = e.procTab.add(e.segScratch, h, slot, procInfo{ps: *ps, inv: -1, opAcc: -1, crashed: -1})
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
	info := &e.procTab.entry(id).val
	if info.inv < 0 {
		info.inv = e.invs.id(info.ps.Pending.Inv)
	}
	return info.inv
}

// pendingOpAcc returns the access-counter id of process p's pending access
// in c — (object, operation) — computed once per interned state. Only the
// DFS, whose process states are all interned, counts accesses; the walkers
// (Walk, Valency, Dot) never ask.
func (e *explorer) pendingOpAcc(c *config, p int) int32 {
	info := &e.procTab.entry(c.procs[p]).val
	if info.opAcc < 0 {
		info.opAcc = e.opAccID(info.ps.Pending.Obj, info.ps.Pending.Inv.Op)
	}
	return info.opAcc
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
