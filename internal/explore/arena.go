package explore

import "slices"

// This file implements the hot path's storage: dense interned
// access-counter ids, the summaries' counter arrays (one reused buffer
// per DFS level, and the memo's int32 slab), the intern tables' key
// arena, and the transition and step caches. A node allocates nothing:
// its counters live in its level's buffer, which every node at that level
// reuses; settle copies them into the memo's slab; and both caches are
// rows of plain values indexed by ids the edge already holds — no key is
// built, hashed or compared. What a tree fills (rows, slab chunks, pages)
// starts small, grows geometrically and holds no pointers where it is per
// node. Its contents are per tree; its storage belongs to the explorer,
// which keeps it at its capacity when reset empties it for the next tree.

// accChunkShift splits an accSlab reference into chunk and offset: a
// chunk holds at most 1<<accChunkShift counters, unless it was made for
// one region that is larger still.
const accChunkShift = 16

// accSlab stores the memo's counter arrays, each a contiguous region of
// one chunk named by a uint32 reference (chunk<<accChunkShift | offset)
// and preceded by its capacity, so no reference is 0. Chunks start small
// and double up to the shift's limit, so a small tree stays small and a
// big one never copies a chunk to grow it. reset keeps every chunk, and
// the next tree fills them again in order. The zero value is ready to
// use.
type accSlab struct {
	chunks [][]int32
	used   int // chunks[:used] hold the current tree's regions
}

// alloc reserves a region of n counters and returns its reference.
func (s *accSlab) alloc(n int) uint32 {
	last := s.used - 1
	if last < 0 || len(s.chunks[last])+1+n > cap(s.chunks[last]) {
		size := 512
		if last >= 0 {
			size = min(2*cap(s.chunks[last]), 1<<accChunkShift)
		}
		size = max(size, 1+n)
		if s.used == len(s.chunks) {
			s.chunks = append(s.chunks, nil)
		}
		// A kept chunk serves again only at the capacity this position
		// wants, so one made for a single outsized region is never
		// shared past the reference's offset bits.
		if cap(s.chunks[s.used]) != size {
			s.chunks[s.used] = make([]int32, 0, size)
		}
		s.chunks[s.used] = s.chunks[s.used][:0]
		s.used++
		last++
	}
	off := len(s.chunks[last])
	s.chunks[last] = append(s.chunks[last], int32(n))[:off+1+n]
	return uint32(last)<<accChunkShift | uint32(off+1)
}

// reset frees every region for the next tree, keeping the chunks.
func (s *accSlab) reset() { s.used = 0 }

// capOf returns the capacity of the region at ref.
func (s *accSlab) capOf(ref uint32) int {
	return int(s.chunks[ref>>accChunkShift][ref&(1<<accChunkShift-1)-1])
}

// at returns the n counters of the region at ref.
func (s *accSlab) at(ref uint32, n int) []int32 {
	if n == 0 {
		return nil
	}
	off := int(ref & (1<<accChunkShift - 1))
	return s.chunks[ref>>accChunkShift][off : off+n : off+n]
}

// carve returns n elements cut from the chunk *pool, capped at n so no
// later run aliases them. A chunk without room is abandoned for a new
// one: first elements the first time, then twice the last chunk's
// capacity, and never fewer than n. While chunks double, a pool may
// allocate twice what it hands out. Truncating *pool to length 0 hands
// its chunk out again from the start, once every run cut from it is dead
// (a reset): since the chunk is the pool's largest, a reset explorer soon
// cuts a whole tree's runs from one chunk.
func carve[T any](pool *[]T, n, first int) []T {
	if cap(*pool)-len(*pool) < n {
		size := first
		if cap(*pool) > 0 {
			size = 2 * cap(*pool)
		}
		*pool = make([]T, 0, max(size, n))
	}
	off := len(*pool)
	*pool = (*pool)[:off+n]
	return (*pool)[off : off+n : off+n]
}

// initAcct interns the fixed access counters, the per-process and
// per-object totals, into the lookup slices reset emptied. Per-operation
// counters are interned as expansions encounter them (pendingOpAcc). Ids
// are assigned in first-encounter order; reports never depend on the
// order because Result conversion maps ids back through keys.
func (e *explorer) initAcct() {
	for p := 0; p < e.im.Procs; p++ {
		e.procIDs = append(e.procIDs, e.acct.id(procKey(p)))
	}
	for i := range e.im.Objects {
		e.objIDs = append(e.objIDs, e.acct.id(accKey{Obj: i}))
	}
}

// levelBatch is how many levels' counter buffers one allocation makes.
// Each buffer has room for twice the counters the table had then, since
// the table grows while the first paths discover operations.
const levelBatch = 16

// levelAcc returns the zeroed counters of a node expanded at DFS level
// lvl: the level's buffer, sized to the current counter table. Nodes at
// one level are expanded one after another, and a node's summary is
// merged into its parent before its next sibling starts, so they can all
// share the buffer.
func (e *explorer) levelAcc(lvl int) []int32 {
	n := len(e.acct.vals)
	if lvl == len(e.levelBufs) {
		batch := make([]int32, 2*levelBatch*n)
		for i := 0; i < levelBatch; i++ {
			e.levelBufs = append(e.levelBufs, batch[2*i*n:2*i*n:2*(i+1)*n])
		}
	}
	if cap(e.levelBufs[lvl]) < n {
		e.levelBufs[lvl] = make([]int32, 0, 2*n)
	}
	acc := e.levelBufs[lvl][:n]
	clear(acc)
	return acc
}

// growAcc widens s.acc to the full counter table (which has grown since
// s was sized), preserving existing counts. A level buffer with room
// grows in place; otherwise the new slice replaces it when the node
// finishes (expandNode).
func (e *explorer) growAcc(s *summary) {
	n := len(e.acct.vals)
	if n <= cap(s.acc) {
		old := len(s.acc)
		s.acc = s.acc[:n]
		clear(s.acc[old:])
		return
	}
	acc := make([]int32, n)
	copy(acc, s.acc)
	s.acc = acc
}

// cachedTrans is one outcome of an object access: the interned successor
// state and the response id. A transition's outcomes are one run of
// e.transList, shared by every edge that replays it and never mutated.
type cachedTrans struct{ next, resp int32 }

// transRef locates one cached transition's outcomes in e.transList. The
// zero value is an empty cache slot: Spec.Apply never succeeds with no
// outcome.
type transRef struct{ off, n int32 }

// procStep is a cached startNextOp outcome: the stepping process's
// resulting state id, and the run of e.stepResps holding the target
// responses the advance completed (replayed into the path responses on a
// hit, as startNextOp pushes them; the caller's respMark undo then rewinds
// them as usual). An empty cache slot holds next = -1.
type procStep struct{ next, respOff, respN int32 }

// emptyStep fills the step cache's new slots.
var emptyStep = procStep{next: -1}

// cacheRows is one cache's row table: rows[id] is the row of one
// (component, state id) pair, indexed by a slot number. Rows are carved
// from shared chunks (a new chunk doubles the last, from 64 slots), so a
// tree's rows cost a few allocations, not a few per row, and a reset
// explorer's none once its last chunk holds them all. The zero value is
// ready to use.
type cacheRows[T any] struct {
	rows  [][]T
	chunk []T
}

// reset empties every row, keeping the row table and the last chunk.
func (r *cacheRows[T]) reset() {
	clear(r.rows)
	r.rows = r.rows[:0]
	r.chunk = r.chunk[:0]
}

// slot returns the slot of row id, or nil if it was never filled.
func (r *cacheRows[T]) slot(id, slot int) *T {
	if id < len(r.rows) {
		if row := r.rows[id]; slot < len(row) {
			return &row[slot]
		}
	}
	return nil
}

// fill returns the slot of row id for writing, growing the row table to
// hold id and the row to hold slot and at least width slots (the width
// the row's id sets have now, so it need not regrow until they grow). New
// slots hold empty; a regrown row moves to a fresh run of the chunk.
func (r *cacheRows[T]) fill(id, slot, width int, empty T) *T {
	if id >= len(r.rows) {
		r.rows = slices.Grow(r.rows, max(id+1, 2*len(r.rows), 16)-len(r.rows))[:id+1]
	}
	row := r.rows[id]
	if slot >= len(row) {
		grown := carve(&r.chunk, max(slot+1, width, 2*len(row)), 64)
		copy(grown, row)
		for i := len(row); i < len(grown); i++ {
			grown[i] = empty
		}
		row = grown
		r.rows[id] = row
	}
	return &row[slot]
}

// applyCached is Spec.Apply, for process p's pending access to object obj
// (whose invocation has cache id inv), behind the transition cache: a row per
// (object-state id, object), indexed by invocation id and port. A hit —
// the overwhelmingly common case, since reachable (state, port, inv)
// triples are few (bounded by one component's state count, not the
// configuration count) — is three indexed loads and allocates nothing,
// skipping the user Step function, its per-call []Transition, and the
// successor states' interning. Soundness rests on the same contracts the
// memoizer already assumes: Spec.Step is pure and segment encoding is
// injective, so equal state ids are equal states. Errors are not cached
// (they abort the run).
func (e *explorer) applyCached(c *config, p, obj int, inv int32) ([]cachedTrans, error) {
	decl := &e.im.Objects[obj]
	port := decl.Port(p)
	state := c.objs[obj]
	// Implementation.Validate keeps every port in 1..Ports, and
	// startNextOp refuses an access through port 0, so each (inv, port)
	// has its own slot.
	ports := decl.Spec.Ports
	slot := int(inv)*ports + port - 1
	row := int(state)*len(e.im.Objects) + obj
	if r := e.transRows.slot(row, slot); r != nil && r.n != 0 {
		e.transHits++
		return e.transList[r.off : r.off+r.n : r.off+r.n], nil
	}
	ts, err := decl.Spec.Apply(e.obj(state), port, e.proc(c.procs[p]).Pending.Inv)
	if err != nil {
		return nil, err
	}
	e.transMisses++
	r := transRef{off: int32(len(e.transList)), n: int32(len(ts))}
	for _, t := range ts {
		e.transList = append(e.transList, cachedTrans{next: e.internObj(t.Next), resp: e.resps.id(t.Resp)})
	}
	*e.transRows.fill(row, slot, len(e.invs.vals)*ports, transRef{}) = r
	return e.transList[r.off : r.off+r.n : r.off+r.n], nil
}

// stepProc advances process p of c over a completed access with response
// id resp, for access (its one caller), through the step cache: a row per
// (pre-state id, process), indexed by 2*resp+forced. By the machine
// contract (deterministic, comparable states) p, its pre-state and resp
// determine the entire advance, including any chain of zero-access
// operations it completes. forced sets Stepped first
// (CrashBeforeFirstStep), which the pre-state id does not reflect, so it
// is part of the index. The responses are all a history needs
// (Leaf.History), so every run but a Walk steps through the cache; a
// Walk's scratch state is stepped in place. Errors are not cached.
func (e *explorer) stepProc(c *config, p int, resp int32, forced bool) error {
	if c.procs[p] < 0 {
		ps := &e.scratch[p]
		if forced {
			ps.Stepped = true
		}
		return e.startNextOp(ps, p, e.resps.vals[resp])
	}
	state := c.procs[p]
	slot := 2 * int(resp)
	if forced {
		slot++
	}
	row := int(state)*len(c.procs) + p
	if st := e.stepRows.slot(row, slot); st != nil && st.next >= 0 {
		e.stepHits++
		c.procs[p] = st.next
		if st.respN > 0 {
			e.respN[p] += copy(e.respBuf[p][e.respN[p]:], e.stepResps[st.respOff:st.respOff+st.respN])
		}
		return nil
	}
	ps := *e.proc(state)
	if forced {
		ps.Stepped = true
	}
	mark := e.respN[p]
	if err := e.startNextOp(&ps, p, e.resps.vals[resp]); err != nil {
		return err
	}
	e.stepMisses++
	done := e.respBuf[p][mark:e.respN[p]]
	st := procStep{next: e.internProc(&ps), respOff: int32(len(e.stepResps)), respN: int32(len(done))}
	e.stepResps = append(e.stepResps, done...)
	*e.stepRows.fill(row, slot, 2*len(e.resps.vals), emptyStep) = st
	c.procs[p] = st.next
	return nil
}
