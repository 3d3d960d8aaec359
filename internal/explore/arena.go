package explore

import (
	"encoding/binary"
	"encoding/hex"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file implements the hot path's allocation machinery: dense interned
// access-counter ids, slab arenas for summary records and their counter
// slices, a byte arena for cached configuration-segment encodings, and
// free lists for the per-edge config clones and the summaries that are not
// retained by the memo. Together they take the per-node allocation count
// from ~8 (summary + counter map + three clone slices + key string + map
// growth) to amortized fractions of one: slabs are handed out in large
// chunks, clones and non-retained summaries are recycled immediately after
// their merge, and whole arenas die with the tree instead of feeding the
// GC one node at a time.

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
// slices carved from int32 chunks of up to accSlab, and segment encodings
// and memo keys from byte chunks of up to segSlab. Chunks start small and
// double per refill — explorers are per-tree, and most trees in a
// consensus sweep are small, so fixed maximal slabs would dominate a small
// tree's footprint. Each refill abandons the rest of the previous chunk,
// so while chunks double an arena may allocate twice what it stores; the
// small segSlab bounds that waste in the memo's key arena, which stores
// about one key per node.
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

// byteArena hands out immutable byte segments (cached component
// encodings) from slab chunks. The zero value is ready to use.
type byteArena struct {
	buf   []byte
	chunk int
}

// save copies b into the arena and returns the stored copy, capped at its
// own length so later saves never alias it.
func (a *byteArena) save(b []byte) []byte {
	return a.saveCap(b, len(b))
}

// saveCap is save with room to spare: the stored copy has capacity
// c >= len(b), so its owner may later overwrite it in place with any
// value of up to c bytes.
func (a *byteArena) saveCap(b []byte, c int) []byte {
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
	a.buf = a.buf[:n+c]
	return a.buf[n : n+len(b) : n+c]
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
		*s = summary{nodes: 1, acc: acc}
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

// cloneConfig is the hot-path clone: slice contents are copied into a
// recycled config when one is available, so steady-state cloning allocates
// nothing. Under the flat layout the cached segment encodings are carried
// over (slice headers only — segments are immutable arena bytes).
func (e *explorer) cloneConfig(c *config) *config {
	var d *config
	if n := len(e.freeCfgs); n > 0 {
		d = e.freeCfgs[n-1]
		e.freeCfgs = e.freeCfgs[:n-1]
	} else {
		d = &config{}
	}
	d.objs = append(d.objs[:0], c.objs...)
	d.procs = append(d.procs[:0], c.procs...)
	d.objEnc = append(d.objEnc[:0], c.objEnc...)
	d.procEnc = append(d.procEnc[:0], c.procEnc...)
	return d
}

// walkChild visits the child of c reached by process p taking the cached
// transition t on object obj, for the tree walkers outside the DFS
// (Valency, Dot): a recycled clone of c stepped through the step cache,
// handed to visit, then recycled with e.responses rewound. The DFS steps
// in place instead.
func (e *explorer) walkChild(c *config, p, obj int, t cachedTrans, visit func(*config) error) error {
	child := e.cloneConfig(c)
	child.objs[obj], child.objEnc[obj] = t.next, t.nextEnc
	mark := len(e.responses[p])
	err := e.stepProcCached(child, p, t.resp, false)
	if err == nil {
		err = visit(child)
	}
	e.responses[p] = e.responses[p][:mark]
	e.recycleConfig(child)
	return err
}

// recycleConfig returns a fully-merged child config to the free list.
// Configs are strictly stack-scoped (the explorer retains keys, never
// configs), so recycling after the child's subtree completes is safe.
func (e *explorer) recycleConfig(c *config) {
	if e.curConfig == c {
		e.curConfig = nil // keep the panic/heartbeat breadcrumb honest
	}
	e.freeCfgs = append(e.freeCfgs, c)
}

// encodeObjSeg encodes one object state as an immutable arena segment.
func (e *explorer) encodeObjSeg(state any) []byte {
	e.segScratch = e.enc.appendAny(e.segScratch[:0], state)
	return e.segs.save(e.segScratch)
}

// encodeProcSeg encodes one process control state as an immutable arena
// segment.
func (e *explorer) encodeProcSeg(ps *procState) []byte {
	e.segScratch = e.enc.appendProc(e.segScratch[:0], ps)
	return e.segs.save(e.segScratch)
}

// encodeSegments (re)builds every cached segment of c — used once at the
// root; per-edge updates re-encode only the changed components.
func (e *explorer) encodeSegments(c *config) {
	c.objEnc = make([][]byte, len(c.objs))
	for i := range c.objs {
		c.objEnc[i] = e.encodeObjSeg(c.objs[i])
	}
	c.procEnc = make([][]byte, len(c.procs))
	for p := range c.procs {
		c.procEnc[p] = e.encodeProcSeg(&c.procs[p])
	}
}

// cachedTrans is one outcome of an object access with the successor
// state's flat segment encoded exactly once, when the transition first
// enters the cache. Cached slices and segments are shared across every
// edge that replays the transition and are never mutated.
type cachedTrans struct {
	next    any
	resp    types.Response
	nextEnc []byte
}

// applyCached is Spec.Apply behind the transition cache: the
// cache key reuses the object's already-encoded state segment, so a hit —
// the overwhelmingly common case, since reachable (state, port, inv)
// triples are few (bounded by one component's state count, not the
// configuration count) — costs one map probe and zero allocations,
// skipping the user Step function, its per-call []Transition, and the
// successor-segment encodings. Soundness rests on the same contracts the
// memoizer already assumes: Spec.Step is pure and segment encoding is
// injective. Errors are not cached (they abort the run).
func (e *explorer) applyCached(c *config, p int, act program.Action) ([]cachedTrans, error) {
	decl := &e.im.Objects[act.Obj]
	port := decl.Port(p)
	b := e.transScratch[:0]
	b = binary.AppendVarint(b, int64(act.Obj))
	b = append(b, c.objEnc[act.Obj]...)
	b = binary.AppendVarint(b, int64(port))
	b = appendInvocation(b, act.Inv)
	e.transScratch = b
	if ts, ok := e.transCache[string(b)]; ok {
		return ts, nil
	}
	ts, err := decl.Spec.Apply(c.objs[act.Obj], port, act.Inv)
	if err != nil {
		return nil, err
	}
	cts := make([]cachedTrans, len(ts))
	for i, t := range ts {
		cts[i] = cachedTrans{next: t.Next, resp: t.Resp, nextEnc: e.encodeObjSeg(t.Next)}
	}
	if e.transCache == nil {
		e.transCache = make(map[string][]cachedTrans)
	}
	e.transCache[string(b)] = cts
	return cts, nil
}

// procStep is a cached startNextOp outcome: the stepping process's
// resulting state, its flat segment (encoded once), and the target
// responses the advance completed (replayed into e.responses on a hit,
// mirroring endOp; the caller's respMark undo then rewinds them as usual).
type procStep struct {
	ps    procState
	enc   []byte
	resps []types.Response
}

// stepProcCached advances process p of c over a completed access with
// response resp, through the step cache. The key is p plus p's
// already-encoded pre-state segment plus resp — by the machine contract
// (deterministic, comparable states) that determines the entire advance,
// including any chain of zero-access operations it completes. forced marks
// that the caller set Stepped on the clone (CrashBeforeFirstStep), which
// the stale pre-state segment does not reflect. A cached advance replays
// responses but no history events, so RecordHistory runs bypass the cache
// and step the machine directly. Nothing else keys on a history run's
// process segments either (Memoize is excluded, and Valency runs without
// histories), so the stepped process's segment is dropped, not
// re-encoded; keyHex encodes a dropped segment on demand. Errors are not
// cached.
func (e *explorer) stepProcCached(c *config, p int, resp types.Response, forced bool) error {
	if e.opts.RecordHistory {
		c.procEnc[p] = nil
		return e.startNextOp(c, p, resp)
	}
	b := e.stepScratch[:0]
	b = binary.AppendVarint(b, int64(p))
	if forced {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, c.procEnc[p]...)
	b = appendResponse(b, resp)
	e.stepScratch = b
	if st, ok := e.stepCache[string(b)]; ok {
		c.procs[p] = st.ps
		c.procEnc[p] = st.enc
		e.responses[p] = append(e.responses[p], st.resps...)
		return nil
	}
	mark := len(e.responses[p])
	if err := e.startNextOp(c, p, resp); err != nil {
		return err
	}
	enc := e.encodeProcSeg(&c.procs[p])
	c.procEnc[p] = enc
	st := procStep{ps: c.procs[p], enc: enc}
	if n := len(e.responses[p]) - mark; n > 0 {
		st.resps = append([]types.Response(nil), e.responses[p][mark:]...)
	}
	if e.stepCache == nil {
		e.stepCache = make(map[string]procStep)
	}
	e.stepCache[string(b)] = st
	return nil
}

// flatKey assembles c's key from its cached segments into the encoder's
// reused buffer: object segments, separator, process segments. The
// returned slice is invalidated by the next flatKey call.
func (e *explorer) flatKey(c *config) []byte {
	e.enc.buf = appendFlatKey(e.enc.buf[:0], c)
	return e.enc.buf
}

func appendFlatKey(b []byte, c *config) []byte {
	for _, s := range c.objEnc {
		b = append(b, s...)
	}
	b = append(b, tagSep)
	for _, s := range c.procEnc {
		b = append(b, s...)
	}
	return b
}

// keyHex renders c's key as hex for diagnostics (panic context, stall
// heartbeats). It builds the key in a fresh buffer, so it is safe even
// when the encoder's buffer was mid-append, and encodes the process
// segments a history run dropped with a fresh encoder.
func keyHex(c *config) string {
	dropped := false
	for _, s := range c.procEnc {
		dropped = dropped || s == nil
	}
	if !dropped {
		return hex.EncodeToString(appendFlatKey(nil, c))
	}
	var enc keyEncoder
	d := *c
	d.procEnc = make([][]byte, len(c.procs))
	for p, s := range c.procEnc {
		if d.procEnc[p] = s; s == nil {
			d.procEnc[p] = enc.appendProc(nil, &c.procs[p])
		}
	}
	return hex.EncodeToString(appendFlatKey(nil, &d))
}
