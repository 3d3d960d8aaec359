package explore

import (
	"waitfree/internal/program"
)

// This file implements the hot path's allocation machinery — dense interned
// access-counter ids, slab arenas for summary records and their counter
// slices, a byte arena for the key tables' keys, and a free list for the
// summaries that are not retained by the memo — and the transition and
// step caches. Together with in-place stepping, which allocates no child
// configs at all, they take the per-node allocation count from ~8
// (summary + counter map + three clone slices + key string + map growth)
// to amortized fractions of one: slabs are handed out in large chunks,
// non-retained summaries are recycled immediately after their merge, and
// whole arenas die with the tree instead of feeding the GC one node at a
// time.

// accTable interns accKeys (per-object totals, per-(object, op) counters,
// per-process step counters) into dense int32 ids, replacing the per-node
// map[accKey]int the old summaries carried. Ids are assigned in
// first-encounter order; reports never depend on the order because Result
// conversion maps ids back through keys.
type accTable struct {
	ids  map[accKey]int32
	keys []accKey
}

func newAccTable() *accTable {
	return &accTable{ids: make(map[accKey]int32)}
}

// id interns k, growing the table on first encounter.
func (a *accTable) id(k accKey) int32 {
	id, ok := a.ids[k]
	if !ok {
		id = int32(len(a.keys))
		a.ids[k] = id
		a.keys = append(a.keys, k)
	}
	return id
}

// Slab sizes: summaries are handed out in chunks of up to sumSlab, counter
// slices carved from int32 chunks of up to accSlab, and the key tables'
// keys (interned segments, memo id keys) from byte chunks of up to segSlab.
// Chunks start small and double per refill — explorers are per-tree, and
// most trees in a consensus sweep are small, so fixed maximal slabs would
// dominate a small tree's footprint. Each refill abandons the rest of the
// previous chunk, so while chunks double an arena may allocate twice what
// it stores; the small segSlab bounds that waste in the memo's key arena,
// which stores about one key per node.
// Exhausted chunks are abandoned to the GC
// wholesale when the configs/summaries referencing them die — at the
// latest when the tree completes and the explorer itself is dropped.
const (
	sumSlab = 512
	accSlab = 16 * 1024
	segSlab = 8 * 1024
)

// summaryArena hands out summary records and int32 counter slices from
// slab chunks. The zero value is ready to use.
type summaryArena struct {
	sums     []summary
	acc      []int32
	sumChunk int
	accChunk int
}

func (a *summaryArena) newSummary() *summary {
	if len(a.sums) == 0 {
		n := a.sumChunk * 2
		if n == 0 {
			n = 32
		}
		if n > sumSlab {
			n = sumSlab
		}
		a.sumChunk = n
		a.sums = make([]summary, n)
	}
	s := &a.sums[0]
	a.sums = a.sums[1:]
	return s
}

// allocAcc returns a zeroed int32 slice of length n with no spare
// capacity, so appends by a confused caller can never alias a neighbor.
func (a *summaryArena) allocAcc(n int) []int32 {
	if n == 0 {
		return nil
	}
	if len(a.acc) < n {
		size := a.accChunk * 2
		if size == 0 {
			size = 512
		}
		if size > accSlab {
			size = accSlab
		}
		a.accChunk = size
		if n > size {
			size = n
		}
		a.acc = make([]int32, size)
	}
	out := a.acc[:n:n]
	a.acc = a.acc[n:]
	return out
}

// byteArena hands out byte keys from slab chunks. The zero value is ready
// to use.
type byteArena struct {
	buf   []byte
	chunk int
}

// save copies b into the arena and returns the stored copy, capped at its
// own length so later saves never alias it.
func (a *byteArena) save(b []byte) []byte {
	c := len(b)
	if cap(a.buf)-len(a.buf) < c {
		size := a.chunk * 2
		if size == 0 {
			size = 2 * 1024
		}
		if size > segSlab {
			size = segSlab
		}
		a.chunk = size
		if c > size {
			size = c
		}
		a.buf = make([]byte, 0, size)
	}
	n := len(a.buf)
	a.buf = append(a.buf, b...)
	return a.buf[n : n+c : n+c]
}

// initAcct builds the dense-id caches on first use: per-process and
// per-object-total ids at fixed positions in lookup slices, per-object
// operation ids interned lazily (opAccID) as expansions encounter them.
func (e *explorer) initAcct() {
	e.acct = newAccTable()
	e.procIDs = make([]int32, e.im.Procs)
	for p := 0; p < e.im.Procs; p++ {
		e.procIDs[p] = e.acct.id(procKey(p))
	}
	e.objIDs = make([]int32, len(e.im.Objects))
	e.opIDs = make([]map[string]int32, len(e.im.Objects))
	for i := range e.im.Objects {
		e.objIDs[i] = e.acct.id(accKey{Obj: i})
		e.opIDs[i] = make(map[string]int32)
	}
}

// opAccID returns the dense id of the (obj, op) counter.
func (e *explorer) opAccID(obj int, op string) int32 {
	m := e.opIDs[obj]
	id, ok := m[op]
	if !ok {
		id = e.acct.id(accKey{Obj: obj, Op: op})
		m[op] = id
	}
	return id
}

// newSummary returns a summary with nodes=1 and a zeroed (possibly nil)
// counter slice, recycled from the free list when one is available.
func (e *explorer) newSummary() *summary {
	if n := len(e.freeSums); n > 0 {
		s := e.freeSums[n-1]
		e.freeSums = e.freeSums[:n-1]
		acc := s.acc
		for i := range acc {
			acc[i] = 0
		}
		// Field by field: rewriting the whole record would store its acc
		// pointer again, a write barrier per node while the GC runs.
		s.height, s.nodes, s.leaves = 0, 1, 0
		s.ref, s.retained, s.spilled = false, false, false
		return s
	}
	s := e.sums.newSummary()
	s.nodes = 1
	return s
}

// recycleSummary returns a merged child summary to the free list. Callers
// must never recycle a summary the memo retains (settle sets retained) — a
// later memo hit would observe the recycled record.
func (e *explorer) recycleSummary(s *summary) {
	if s == nil || s.retained {
		return
	}
	e.freeSums = append(e.freeSums, s)
}

// growAcc widens s.acc to at least need counters (and at least the full
// current table, amortizing regrowth), preserving existing counts.
func (e *explorer) growAcc(s *summary, need int) {
	if n := len(e.acct.keys); need < n {
		need = n
	}
	acc := e.sums.allocAcc(need)
	copy(acc, s.acc)
	s.acc = acc
}

// walkChild visits the child of c reached by process p taking the cached
// transition t on object obj, for the tree walkers outside the DFS
// (Valency, Dot): like a DFS edge it steps c in place through the step
// cache, calls visit, and restores c and e.responses.
func (e *explorer) walkChild(c *config, p, obj int, t cachedTrans, visit func() error) error {
	oldObj, oldProc := c.objs[obj], c.procs[p]
	c.objs[obj] = t.next
	mark := len(e.responses[p])
	err := e.stepProc(c, p, t.resp, false)
	if err == nil {
		err = visit()
	}
	c.objs[obj], c.procs[p] = oldObj, oldProc
	e.responses[p] = e.responses[p][:mark]
	return err
}

// transKey keys the transition cache: the object, the id of its state, the
// accessing port, and the invocation id.
type transKey struct{ obj, state, port, inv int32 }

// cachedTrans is one outcome of an object access: the interned successor
// state and the response id. A transition's outcomes are one run of
// e.transList, shared by every edge that replays it and never mutated.
type cachedTrans struct{ next, resp int32 }

// transRef locates one cached transition's outcomes in e.transList.
type transRef struct{ off, n int32 }

// applyCached is Spec.Apply behind the transition cache. A hit — the
// overwhelmingly common case, since reachable (state, port, inv) triples
// are few (bounded by one component's state count, not the configuration
// count) — is one probe of a fixed-size key and allocates nothing,
// skipping the user Step function, its per-call []Transition, and the
// successor states' interning. Soundness rests on the same contracts the
// memoizer already assumes: Spec.Step is pure and segment encoding is
// injective, so equal state ids are equal states. Errors are not cached
// (they abort the run).
func (e *explorer) applyCached(c *config, p int, act *program.Action, inv int32) ([]cachedTrans, error) {
	decl := &e.im.Objects[act.Obj]
	port := decl.Port(p)
	k := transKey{obj: int32(act.Obj), state: c.objs[act.Obj], port: int32(port), inv: inv}
	if r, ok := e.transCache[k]; ok {
		e.transHits++
		return e.transList[r.off : r.off+r.n : r.off+r.n], nil
	}
	ts, err := decl.Spec.Apply(e.obj(c.objs[act.Obj]), port, act.Inv)
	if err != nil {
		return nil, err
	}
	e.transMisses++
	r := transRef{off: int32(len(e.transList)), n: int32(len(ts))}
	for _, t := range ts {
		e.transList = append(e.transList, cachedTrans{next: e.internObj(t.Next), resp: e.resps.id(t.Resp)})
	}
	if e.transCache == nil {
		e.transCache = make(map[transKey]transRef)
	}
	e.transCache[k] = r
	return e.transList[r.off : r.off+r.n : r.off+r.n], nil
}

// stepKey keys the step cache: the process, the id of its pre-state, the
// response id, and the forced-step flag (0 or 1). Four int32s make a
// 16-byte key, which Go maps hash and compare with their fixed-size fast
// paths.
type stepKey struct{ p, state, resp, forced int32 }

// procStep is a cached startNextOp outcome: the stepping process's
// resulting state id, and the run of e.stepResps holding the target
// responses the advance completed (replayed into e.responses on a hit,
// as startNextOp appends them; the caller's respMark undo then rewinds
// them as usual).
type procStep struct{ next, respOff, respN int32 }

// stepProc advances process p of c over a completed access with response
// id resp, through the step cache. The key is p, p's pre-state id and
// resp — by the machine contract (deterministic, comparable states) that
// determines the entire advance, including any chain of zero-access
// operations it completes. forced sets Stepped first (CrashBeforeFirstStep),
// which the pre-state id does not reflect, so it is part of the key. The
// responses are all a history needs (historyView), so every run but a
// Walk steps through the cache; a Walk's scratch state is stepped in
// place. Errors are not cached.
func (e *explorer) stepProc(c *config, p int, resp int32, forced bool) error {
	if c.procs[p] < 0 {
		ps := &e.scratch[p]
		if forced {
			ps.Stepped = true
		}
		return e.startNextOp(ps, p, e.resps.vals[resp])
	}
	k := stepKey{p: int32(p), state: c.procs[p], resp: resp}
	if forced {
		k.forced = 1
	}
	if st, ok := e.stepCache[k]; ok {
		e.stepHits++
		c.procs[p] = st.next
		if st.respN > 0 {
			e.responses[p] = append(e.responses[p], e.stepResps[st.respOff:st.respOff+st.respN]...)
		}
		return nil
	}
	ps := *e.proc(c.procs[p])
	if forced {
		ps.Stepped = true
	}
	mark := len(e.responses[p])
	if err := e.startNextOp(&ps, p, e.resps.vals[resp]); err != nil {
		return err
	}
	e.stepMisses++
	done := e.responses[p][mark:]
	st := procStep{next: e.internProc(&ps), respOff: int32(len(e.stepResps)), respN: int32(len(done))}
	e.stepResps = append(e.stepResps, done...)
	if e.stepCache == nil {
		e.stepCache = make(map[stepKey]procStep)
	}
	e.stepCache[k] = st
	c.procs[p] = st.next
	return nil
}
