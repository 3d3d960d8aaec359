package explore

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/fsx"
	"waitfree/internal/program"
)

// memoInsert acquires key, which must miss, and settles it with sum.
// newMemoTable returns an empty table, reset as an explorer resets its
// own for each tree.
func newMemoTable(budget int, spillDir string, fsys fsx.FS) *memoTable {
	t := new(memoTable)
	t.reset(budget, spillDir, fsys)
	return t
}

func memoInsert(t testing.TB, tbl *memoTable, key string, sum *summary) {
	t.Helper()
	_, id, found := tbl.acquire([]byte(key))
	if found != memoMiss {
		t.Fatalf("acquire(%q) found %d, want a miss", key, found)
	}
	tbl.settle(id, sum)
}

// TestMemoTableBasics pins the id API on an unbudgeted table: a miss
// inserts a gray entry, a second acquire of it reports memoOnStack,
// settle turns it into a cached hit carrying a copy of the summary, drop
// forgets it, and a key of another width is refused.
func TestMemoTableBasics(t *testing.T) {
	m := newMemoTable(0, "", nil)
	sum := &summary{height: 2, nodes: 5, leaves: 3, acc: []int32{0, 4, 1}}
	keys := []string{"\x00\x00\x00\x00", "aaaa", "bbbb", "aabb", "\x00\x01\x02\x03", "long"}
	ids := make([]int32, len(keys))
	for i, k := range keys {
		_, id, found := m.acquire([]byte(k))
		if found != memoMiss || id < 0 {
			t.Fatalf("empty table contains %q", k)
		}
		ids[i] = id
		if _, _, found := m.acquire([]byte(k)); found != memoOnStack {
			t.Fatalf("acquire(%q) on the stack found %d, want memoOnStack", k, found)
		}
	}
	if got := len(m.grayKeys()); got != len(keys) {
		t.Fatalf("grayKeys = %d, want %d", got, len(keys))
	}
	for i, k := range keys {
		if i%2 == 0 {
			m.settle(ids[i], sum)
		} else {
			m.drop(ids[i])
			if _, id, found := m.acquire([]byte(k)); found != memoMiss {
				t.Fatalf("dropped key %q still present", k)
			} else {
				m.settle(id, sum)
			}
		}
	}
	if got := len(m.grayKeys()); got != 0 {
		t.Fatalf("grayKeys after settling = %d, want 0", got)
	}
	if m.count != len(keys) {
		t.Fatalf("count = %d, want %d", m.count, len(keys))
	}
	sum.acc[1] = 99 // the table holds a copy
	for _, k := range keys {
		v, _, found := m.acquire([]byte(k))
		if found != memoHit || v.height != 2 || v.nodes != 5 || v.leaves != 3 || !reflect.DeepEqual(v.acc, []int32{0, 4, 1}) {
			t.Fatalf("acquire(%q) = %+v (found %d), want the settled summary", k, v, found)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a key of another width was accepted")
		}
	}()
	m.acquire([]byte("wider"))
}

// TestMemoPutNoEvictStorm is the regression test for the evict-storm bug:
// the old put triggered a full-table eviction scan on every insert once
// gray marks alone reached the budget, turning budgeted runs quadratic.
// The table counts only cached (non-gray) entries toward the budget and
// pays at most one clock scan per eviction (plus one per second chance),
// so total scan work is O(evictions), never O(inserts) per insert.
func TestMemoPutNoEvictStorm(t *testing.T) {
	const budget = 8
	tbl := newMemoTable(budget, "", nil)

	// A deep DFS stack: gray marks alone exceed the whole budget. They
	// hold no budget slot, so nothing is scanned and nothing is evicted.
	for i := 0; i < 4*budget; i++ {
		if _, _, found := tbl.acquire([]byte(fmt.Sprintf("gray%04d", i))); found != memoMiss {
			t.Fatalf("fresh gray key hit")
		}
	}
	if n := tbl.count; n != 0 {
		t.Fatalf("gray marks counted toward the budget: count=%d", n)
	}
	if s := tbl.evictScans; s != 0 {
		t.Fatalf("gray marks triggered eviction scans: %d", s)
	}

	// Cached inserts with no interleaved hits: every over-budget insert
	// reclaims exactly one entry with exactly one clock scan.
	const inserts = 1000
	for i := 0; i < inserts; i++ {
		memoInsert(t, tbl, fmt.Sprintf("key%05d", i), &summary{nodes: 1})
	}
	if n := tbl.count; n != budget {
		t.Fatalf("resident count = %d, want budget %d", n, budget)
	}
	ev, scans := tbl.evictions, tbl.evictScans
	if ev != inserts-budget {
		t.Fatalf("evictions = %d, want %d", ev, inserts-budget)
	}
	if scans != ev {
		t.Fatalf("evict storm: %d clock scans for %d evictions", scans, ev)
	}

	// Acquiring a resident key again takes no new budget slot: no
	// eviction, no change to the count.
	if _, _, found := tbl.acquire([]byte(fmt.Sprintf("key%05d", inserts-1))); found != memoHit {
		t.Fatalf("newest resident entry missing")
	}
	if got := tbl.evictions; got != ev {
		t.Fatalf("re-acquire evicted: %d -> %d", ev, got)
	}
	if n := tbl.count; n != budget {
		t.Fatalf("re-acquire changed the count: %d", n)
	}

	// Second chance: a hit since last consideration spares the entry for
	// one extra scan, then the next-oldest entry goes.
	head := fmt.Sprintf("key%05d", inserts-budget) // oldest resident
	if _, _, found := tbl.acquire([]byte(head)); found != memoHit {
		t.Fatalf("resident entry %q missing", head)
	}
	memoInsert(t, tbl, "fresh000", &summary{nodes: 1})
	if got := tbl.evictScans - scans; got != 2 {
		t.Fatalf("second chance cost %d scans, want 2 (requeue + evict)", got)
	}
	if got := tbl.evictions - ev; got != 1 {
		t.Fatalf("second chance evicted %d entries, want 1", got)
	}
	if _, _, found := tbl.acquire([]byte(head)); found != memoHit {
		t.Fatalf("referenced entry %q was evicted despite its second chance", head)
	}
}

// memoModel is the reference semantics of memoTable: a plain map plus a
// second-chance clock of keys, and a map standing in for the spill tier.
// It restates the contract the table had when it was a string-keyed map,
// so the model test pins that the id table evicts the same entries in the
// same order.
type memoModel struct {
	budget    int
	spillOn   bool
	entries   map[string]*modelEntry
	clock     []string
	spill     map[string]int64 // key -> spilled summary's nodes
	count     int
	evictions int64
	spilled   int64
	degraded  bool
}

type modelEntry struct {
	gray  bool
	nodes int64
	ref   bool
}

// acquire returns (gray, nodes, hit) for key, inserting it gray on a miss.
func (m *memoModel) acquire(key string) (gray bool, nodes int64, hit bool) {
	if e, ok := m.entries[key]; ok {
		if !e.gray {
			e.ref = true
		}
		return e.gray, e.nodes, true
	}
	if n, ok := m.spill[key]; ok && m.spillOn {
		m.entries[key] = &modelEntry{nodes: n}
		m.admit(key)
		return false, n, true
	}
	m.entries[key] = &modelEntry{gray: true}
	return false, 0, false
}

func (m *memoModel) settle(key string, nodes int64) {
	m.entries[key] = &modelEntry{nodes: nodes}
	m.admit(key)
}

func (m *memoModel) admit(key string) {
	m.count++
	if m.budget == 0 {
		return // an unbudgeted table keeps no clock
	}
	m.clock = append(m.clock, key)
	for m.budget > 0 && m.count > m.budget && len(m.clock) > 0 {
		k := m.clock[0]
		m.clock = m.clock[1:]
		e := m.entries[k]
		if e.ref {
			e.ref = false
			m.clock = append(m.clock, k)
			continue
		}
		delete(m.entries, k)
		m.count--
		m.evictions++
		if m.spillOn {
			m.spill[k] = e.nodes
			m.spilled++
		} else {
			m.degraded = true
		}
	}
}

// check compares every observable part of tbl with the model: resident
// keys with their gray/cached state, summaries and second-chance bits,
// the clock order, the budget count, the index population and the
// eviction telemetry. Every resident key must also be reachable by a
// probe from its home slot, whatever deletions shifted its run.
func (m *memoModel) check(t *testing.T, step int, tbl *memoTable) {
	t.Helper()
	resident, cached := 0, 0
	for id := int32(0); id < tbl.nextID; id++ {
		rec := tbl.rec(id)
		st := rec.meta & memoStateMask
		if st == memoFree {
			continue
		}
		resident++
		key := tbl.key(id)
		want, ok := m.entries[string(key)]
		gray := st == memoGray
		ref := rec.meta&memoRef != 0
		switch {
		case !ok:
			t.Fatalf("step %d: table holds %q, model does not", step, key)
		case want.gray != gray:
			t.Fatalf("step %d: %q gray=%v in the table, %v in the model", step, key, gray, want.gray)
		case !want.gray && (want.nodes != rec.nodes || want.ref != ref):
			t.Fatalf("step %d: %q holds (nodes %d, ref %v), model (nodes %d, ref %v)",
				step, key, rec.nodes, ref, want.nodes, want.ref)
		}
		if !want.gray {
			cached++
		}
		if got, _, _ := tbl.find(key); got != id {
			t.Fatalf("step %d: %q (id %d) unreachable: find gives %d", step, key, id, got)
		}
	}
	if resident != len(m.entries) || resident != tbl.live {
		t.Fatalf("step %d: %d resident entries (live %d), model %d", step, resident, tbl.live, len(m.entries))
	}
	slots := 0
	for _, s := range tbl.index {
		if s != 0 {
			slots++
		}
	}
	if slots != resident {
		t.Fatalf("step %d: %d index slots for %d resident entries", step, slots, resident)
	}
	if tbl.count != cached || tbl.count != m.count {
		t.Fatalf("step %d: count %d, cached %d, model %d", step, tbl.count, cached, m.count)
	}
	clock := tbl.clock[tbl.clockHead:]
	if len(clock) != len(m.clock) {
		t.Fatalf("step %d: clock holds %d ids, model %d keys", step, len(clock), len(m.clock))
	}
	for i, id := range clock {
		if got := string(tbl.key(id)); got != m.clock[i] {
			t.Fatalf("step %d: clock[%d] = %q, model %q", step, i, got, m.clock[i])
		}
	}
	if tbl.evictions != m.evictions || tbl.spilled != m.spilled || tbl.isDegraded() != m.degraded {
		t.Fatalf("step %d: evictions %d spilled %d degraded %v, model %d %d %v", step,
			tbl.evictions, tbl.spilled, tbl.isDegraded(), m.evictions, m.spilled, m.degraded)
	}
}

// TestMemoTableMatchesModel drives the table and the model with the same
// seeded random acquire/settle/drop sequences — hits on cached and gray
// entries, misses, spill reloads — at several budgets, with and without a
// spill tier, and compares them after every step. Settled summaries carry
// counters of varying length, so freed entries' counter regions are
// reused both in place and by reallocation. The wide cases use enough
// keys to fill several entry pages. At the end every gray entry is
// finished and none may survive. The reset cases drive one table through
// three trees, as a worker's explorer does: the second over the first's
// keys, so any entry, counter region or spilled record a reset left
// behind would serve a hit the fresh model does not expect, and the third
// over keys of another width, so the kept pages must make room for it.
func TestMemoTableMatchesModel(t *testing.T) {
	keysOf := func(n int, seed int64, pad int) []string {
		rng := rand.New(rand.NewSource(seed))
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("k%05d|%s", i, strings.Repeat(string(rune('a'+rng.Intn(26))), pad))
		}
		return out
	}
	keys := func(n int, seed int64) []string { return keysOf(n, seed, 6) }
	for _, budget := range []int{0, 1, 8, 64} {
		for _, spill := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("budget=%d/spill=%v/seed=%d", budget, spill, seed)
				t.Run(name, func(t *testing.T) {
					dir := ""
					if spill {
						dir = t.TempDir()
					}
					runMemoModel(t, budget, dir, seed, keys(3*budget+16, seed), 2000)
				})
			}
		}
	}
	for _, budget := range []int{0, memoPageSize + memoPageSize/2} {
		t.Run(fmt.Sprintf("wide/budget=%d", budget), func(t *testing.T) {
			runMemoModel(t, budget, t.TempDir(), 1, keys(3*memoPageSize, 1), 6000)
		})
	}
	for _, budget := range []int{0, 8, memoPageSize + memoPageSize/2} {
		for _, spill := range []bool{false, true} {
			t.Run(fmt.Sprintf("reset/budget=%d/spill=%v", budget, spill), func(t *testing.T) {
				dir := ""
				if spill {
					dir = t.TempDir()
				}
				n := min(3*budget+16, 3*memoPageSize)
				tbl := newMemoTable(budget, dir, nil)
				defer tbl.release()
				for tree, ks := range [][]string{keys(n, 1), keys(n, 1), keysOf(n, 2, 11)} {
					if tree > 0 {
						tbl.release()
						tbl.reset(budget, dir, nil)
					}
					driveMemoModel(t, tbl, budget, int64(tree+1), ks, 4000)
				}
				tbl.release()
				if spill {
					if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
						t.Errorf("spill files survived release: %v %v", entries, err)
					}
				}
			})
		}
	}
}

// TestMemoTableCollisions runs the model test over id keys that collide
// in the low bits of hashKey, so every probe walks one long run, index
// growth keeps them in it, and every drop and eviction shifts its members
// back. hashKey is unseeded, so the keys are found by brute force: 8-byte
// keys (two ids) whose hashes agree in their low 12 bits, enough for
// every index size these tables reach. The model check probes every
// resident key after every step, and no gray entry may survive.
func TestMemoTableCollisions(t *testing.T) {
	const lowBits = 1<<12 - 1
	var keys []string
	want := hashKey(make([]byte, 8)) & lowBits
	kb := make([]byte, 8)
	for i := uint32(0); len(keys) < 96; i++ {
		binary.LittleEndian.PutUint32(kb, i%97)
		binary.LittleEndian.PutUint32(kb[4:], i/97)
		if hashKey(kb)&lowBits == want {
			keys = append(keys, string(kb))
		}
	}
	for _, budget := range []int{0, 4, 32} {
		for _, spill := range []bool{false, true} {
			t.Run(fmt.Sprintf("budget=%d/spill=%v", budget, spill), func(t *testing.T) {
				dir := ""
				if spill {
					dir = t.TempDir()
				}
				runMemoModel(t, budget, dir, 7, keys, 3000)
			})
		}
	}
}

// runMemoModel drives a fresh table and the model through steps random
// operations over keys, all of one width (driveMemoModel).
func runMemoModel(t *testing.T, budget int, spillDir string, seed int64, keys []string, steps int) {
	tbl := newMemoTable(budget, spillDir, nil)
	defer tbl.release()
	driveMemoModel(t, tbl, budget, seed, keys, steps)
}

// driveMemoModel drives tbl, which must be empty (fresh or reset), and a
// fresh model through steps random operations over keys, all of one
// width, and finishes every gray entry at the end.
func driveMemoModel(t *testing.T, tbl *memoTable, budget int, seed int64, keys []string, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &memoModel{
		budget:  budget,
		spillOn: tbl.spill != nil,
		entries: make(map[string]*modelEntry),
		spill:   make(map[string]int64),
	}
	type grayEntry struct {
		key string
		id  int32
	}
	var grays []grayEntry
	finish := func(step, i int, settle bool) {
		g := grays[i]
		grays = append(grays[:i], grays[i+1:]...)
		if settle {
			acc := make([]int32, rng.Intn(5))
			for j := range acc {
				acc[j] = int32(step + j)
			}
			tbl.settle(g.id, &summary{nodes: int64(step), acc: acc})
			m.settle(g.key, int64(step))
		} else {
			tbl.drop(g.id)
			delete(m.entries, g.key)
		}
	}
	for step := 1; step <= steps; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(grays) == 0:
			key := keys[rng.Intn(len(keys))]
			wantGray, wantNodes, wantHit := m.acquire(key)
			hit, id, found := tbl.acquire([]byte(key))
			switch {
			case !wantHit:
				if found != memoMiss || id < 0 {
					t.Fatalf("step %d: acquire(%q) = (%d, %d), model misses", step, key, found, id)
				}
				grays = append(grays, grayEntry{key, id})
			case wantGray:
				if found != memoOnStack {
					t.Fatalf("step %d: acquire(%q) found %d, model reports it on the stack", step, key, found)
				}
			default:
				if found != memoHit || hit.nodes != wantNodes {
					t.Fatalf("step %d: acquire(%q) = %+v (found %d), model hits nodes=%d", step, key, hit, found, wantNodes)
				}
				for j, v := range hit.acc {
					if v != int32(wantNodes)+int32(j) {
						t.Fatalf("step %d: acquire(%q) counters %v, settled at step %d", step, key, hit.acc, wantNodes)
					}
				}
			}
		case r < 9:
			finish(step, rng.Intn(len(grays)), true)
		default:
			finish(step, rng.Intn(len(grays)), false)
		}
		m.check(t, step, tbl)
	}
	for i := 0; len(grays) > 0; i++ {
		finish(steps+1+i, len(grays)-1, i%2 == 0)
		m.check(t, steps+1+i, tbl)
	}
	if gray := tbl.grayKeys(); len(gray) != 0 {
		t.Fatalf("%d gray keys survived: %q", len(gray), gray)
	}
}

// TestMemoAcquireAllocFree pins the per-node cost of the resident path:
// a hit, a budgeted miss->settle (which evicts one entry and frees its
// key buffer for the next insert) and a miss->drop allocate nothing once
// the key arena is warm.
func TestMemoAcquireAllocFree(t *testing.T) {
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("configuration-key-%04d", i))
	}
	sum := &summary{nodes: 1}

	hitTbl := newMemoTable(0, "", nil)
	for _, k := range keys {
		memoInsert(t, hitTbl, string(k), sum)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		if hit, _, found := hitTbl.acquire(keys[i%len(keys)]); found != memoHit || hit.nodes != sum.nodes {
			panic("resident key missed")
		}
		i++
	}); a != 0 {
		t.Errorf("unbudgeted hit: %v allocs, want 0", a)
	}

	// Budget 64 over 256 keys cycled in order: every acquire misses and
	// every settle evicts the oldest entry.
	evTbl := newMemoTable(64, "", nil)
	missSettle := func() {
		_, id, found := evTbl.acquire(keys[i%len(keys)])
		if found != memoMiss {
			panic("evicted key hit")
		}
		evTbl.settle(id, sum)
		i++
	}
	for n := 0; n < 2*len(keys); n++ {
		missSettle() // warm the entries, the key buffers and the clock
	}
	if a := testing.AllocsPerRun(1000, missSettle); a != 0 {
		t.Errorf("budgeted miss->settle: %v allocs, want 0", a)
	}

	dropTbl := newMemoTable(0, "", nil)
	missDrop := func() {
		_, id, found := dropTbl.acquire(keys[i%len(keys)])
		if found != memoMiss {
			panic("dropped key hit")
		}
		dropTbl.drop(id)
		i++
	}
	missDrop()
	if a := testing.AllocsPerRun(1000, missDrop); a != 0 {
		t.Errorf("miss->drop: %v allocs, want 0", a)
	}
}

// BenchmarkMemo is the memo table's row in the per-layer ledger: a
// resident hit, an unbudgeted miss->settle (insert of a fresh key), a
// budgeted miss->settle whose eviction writes the victim to the spill
// tier, and trees of inserts into a new table (fresh) or into the last
// tree's table after a reset (reset).
func BenchmarkMemo(b *testing.B) {
	key := func(buf []byte, i int) []byte {
		buf = append(buf[:0], "memo-bench-configuration-key/"...)
		return binary.LittleEndian.AppendUint32(buf, uint32(i))
	}
	sum := &summary{nodes: 1}
	b.Run("hit", func(b *testing.B) {
		const n = 4096
		tbl := newMemoTable(0, "", nil)
		var buf []byte
		for i := 0; i < n; i++ {
			buf = key(buf, i)
			_, id, _ := tbl.acquire(buf)
			tbl.settle(id, sum)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = key(buf, i%n)
			if _, _, found := tbl.acquire(buf); found != memoHit {
				b.Fatal("resident key missed")
			}
		}
	})
	// fresh keeps the miss benchmarks' tables small: it restarts the
	// table (untimed) every reset inserts.
	fresh := func(b *testing.B, budget, reset int, dir func() string) {
		var tbl *memoTable
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%reset == 0 {
				b.StopTimer()
				if tbl != nil {
					tbl.release()
				}
				tbl = newMemoTable(budget, dir(), nil)
				b.StartTimer()
			}
			buf = key(buf, i)
			_, id, found := tbl.acquire(buf)
			if found != memoMiss {
				b.Fatal("fresh key hit")
			}
			tbl.settle(id, sum)
		}
		b.StopTimer()
		tbl.release()
	}
	b.Run("miss", func(b *testing.B) {
		fresh(b, 0, 1<<16, func() string { return "" })
	})
	b.Run("evict+spill", func(b *testing.B) {
		dir := b.TempDir()
		fresh(b, 64, 1<<14, func() string { return dir })
	})
	// tree times whole trees of 4096 inserts, each settling four counters:
	// every tree starts from a new table, or resets the one warm table as
	// a worker's explorer does between trees, keeping its pages, counter
	// slab and index. Every tree inserts the same keys, so an entry a
	// reset left behind would hit.
	tree := func(b *testing.B, reuse bool) {
		const size = 4096
		sum := &summary{nodes: 1, acc: []int32{1, 2, 3, 4}}
		tbl := newMemoTable(0, "", nil)
		var buf []byte
		for i := 0; i < size; i++ {
			buf = key(buf, i)
			_, id, _ := tbl.acquire(buf)
			tbl.settle(id, sum)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%size == 0 {
				if reuse {
					tbl.reset(0, "", nil)
				} else {
					tbl = newMemoTable(0, "", nil)
				}
			}
			buf = key(buf, i%size)
			_, id, found := tbl.acquire(buf)
			if found != memoMiss {
				b.Fatal("a key of the last tree hit")
			}
			tbl.settle(id, sum)
		}
	}
	b.Run("fresh", func(b *testing.B) { tree(b, false) })
	b.Run("reset", func(b *testing.B) { tree(b, true) })
}

// TestMemoSpillPreservesHits pins the spill tier's contract: a budgeted
// run with MemoSpillDir scores exactly the memo hits of an unbounded run,
// produces the identical report, never degrades, and cleans its spill file
// up at completion. At Parallelism 1 one explorer, and so one memo table
// and one spill tier reset between trees, serves every tree: each tree
// deletes its file when it ends and the next starts a fresh one, which no
// record of an earlier tree may serve. The same budget without a spill
// tier must still degrade (the flag keeps meaning "the memo lost entries
// for good").
func TestMemoSpillPreservesHits(t *testing.T) {
	for _, tc := range []struct {
		im  *program.Implementation
		par int
	}{{consensus.Queue2(), 0}, {consensus.Queue2(), 1}, {consensus.Sticky(3), 1}} {
		im, par := tc.im, tc.par
		full, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, Faults: oneCrash, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		spill, err := ConsensusKContext(context.Background(), im, 2, Options{
			Memoize: true, MemoBudget: 4, MemoSpillDir: dir, Faults: oneCrash, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if spill.Degraded || (spill.Stats != nil && spill.Stats.Degraded) {
			t.Fatalf("%s parallelism %d: spill-backed budget degraded: %s", im.Name, par, spill.Summary())
		}
		if spill.Stats.MemoSpilled == 0 {
			t.Errorf("%s parallelism %d: budget 4 spilled nothing: %+v", im.Name, par, spill.Stats)
		}
		if spill.Stats.MemoEvictions == 0 {
			t.Errorf("%s parallelism %d: budget 4 evicted nothing: %+v", im.Name, par, spill.Stats)
		}
		if spill.MemoHits != full.MemoHits {
			t.Errorf("%s parallelism %d: spill lost memo hits: %d, unbounded %d", im.Name, par, spill.MemoHits, full.MemoHits)
		}
		if !reflect.DeepEqual(stripStats(full), stripStats(spill)) {
			t.Errorf("%s parallelism %d: spill-backed report differs from unbounded:\nfull:  %+v\nspill: %+v",
				im.Name, par, stripStats(full), stripStats(spill))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Errorf("%s parallelism %d: spill file survived tree completion: %v", im.Name, par, entries)
		}
	}

	noSpill, err := ConsensusKContext(context.Background(), consensus.Queue2(), 2, Options{Memoize: true, MemoBudget: 4, Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	if !noSpill.Degraded {
		t.Errorf("budget without spill did not degrade")
	}
}

// TestSpillRecordRoundTrip exercises the spill codec directly: arbitrary
// (newline- and NUL-containing) keys and summaries survive the binary
// record round trip, absent keys miss, and a corrupted record is dropped —
// confined to its own entry, never served, never breaking the tier.
func TestSpillRecordRoundTrip(t *testing.T) {
	sp := newMemoSpill(t.TempDir(), nil)
	defer sp.close()

	key := "raw\nbytes\x00with separators"
	sum := &summary{height: 3, nodes: 42, leaves: 7, acc: []int32{0, 2, 5}}
	if !sp.store([]byte(key), sum) {
		t.Fatal("store failed")
	}
	got, ok := sp.load([]byte(key))
	if !ok {
		t.Fatal("load missed a stored key")
	}
	if got.height != sum.height || got.nodes != sum.nodes || got.leaves != sum.leaves ||
		!reflect.DeepEqual(got.acc, sum.acc) {
		t.Fatalf("round trip mangled the summary: %+v want %+v", got, sum)
	}
	if _, ok := sp.load([]byte("absent")); ok {
		t.Fatal("phantom hit for a key never stored")
	}

	// Flip one byte of the stored record: the checksum must catch it, the
	// load must miss, the run must be flagged (the entry's hit is lost for
	// good) — and only that record dies; the tier keeps working.
	if _, err := sp.f.WriteAt([]byte{'#'}, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := sp.load([]byte(key)); ok {
		t.Fatal("corrupted record served")
	}
	if !sp.lost {
		t.Fatal("integrity failure not reported as a lost entry")
	}
	if sp.broken {
		t.Fatal("single corrupt record broke the whole tier")
	}
	if _, ok := sp.load([]byte(key)); ok {
		t.Fatal("dropped record served on a second lookup")
	}
	if !sp.store([]byte("another"), sum) {
		t.Fatal("tier stopped accepting stores after a confined corruption")
	}
	if got, ok := sp.load([]byte("another")); !ok || got.nodes != sum.nodes {
		t.Fatal("entry stored after a confined corruption did not round-trip")
	}
}
