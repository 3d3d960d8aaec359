package explore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// engineExplorer is a fresh explorer set up as runTree sets one up —
// reset, the root, a background context, one worker's counters and the
// access-counter ids — for tests that call e.explore or e.dfs directly.
func engineExplorer(im *program.Implementation, scripts [][]types.Invocation, opts Options) (*explorer, *config, error) {
	e := new(explorer)
	if err := e.reset(im, scripts, opts); err != nil {
		return nil, nil, err
	}
	root, err := e.newRoot()
	if err != nil {
		return nil, nil, err
	}
	e.ctx, e.ctr = context.Background(), newCounters(1, 1)
	e.initAcct()
	return e, root, nil
}

// TestInternedKeyMatchesSegmentKey pins the interned layout's soundness
// contract on every tree of the consensus corpus, memoized, with faults
// off, crash-stop and crash-recovery: two configurations get equal id keys
// iff their segment concatenations are equal. Every memo entry of a tree
// is one distinct id key; decoding each back through the intern tables
// must give pairwise distinct segment keys, and every interned state's
// stored segment must be its own encoding and unique in its table, so no
// two ids stand for one segment.
func TestInternedKeyMatchesSegmentKey(t *testing.T) {
	models := []faults.Model{
		{},
		{Mode: faults.CrashStop, MaxCrashes: 1},
		{Mode: faults.CrashRecovery, MaxCrashes: 1, MaxRecoveries: 1},
	}
	for _, im := range consensus.Corpus() {
		for _, model := range models {
			for mask := 0; mask < 1<<im.Procs; mask++ {
				name := fmt.Sprintf("%s/%v/mask=%d", im.Name, model.Mode, mask)
				scripts := consensusScripts(ProposalVectorK(mask, im.Procs, 2))
				e, root, err := engineExplorer(im, scripts, Options{Memoize: true, Faults: model})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, err := e.explore(root); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkInternedKeys(t, name, e, len(root.objs), len(root.procs))
			}
		}
	}
}

func checkInternedKeys(t *testing.T, name string, e *explorer, nobjs, nprocs int) {
	t.Helper()
	checkSegments := func(table string, n int32, seg func(id int32) []byte, enc func(id int32) []byte) {
		seen := make(map[string]int32, n)
		for id := int32(0); id < n; id++ {
			s := seg(id)
			if got := enc(id); !bytes.Equal(got, s) {
				t.Fatalf("%s: %s id %d stores segment %x, its value encodes to %x", name, table, id, s, got)
			}
			if prev, dup := seen[string(s)]; dup {
				t.Fatalf("%s: %s ids %d and %d share segment %x", name, table, prev, id, s)
			}
			seen[string(s)] = id
		}
	}
	checkSegments("object", e.objTab.nextID,
		func(id int32) []byte { return e.objTab.entry(id).key },
		func(id int32) []byte { return e.enc.appendAny(nil, e.obj(id)) })
	checkSegments("process", e.procTab.nextID,
		func(id int32) []byte { return e.procTab.entry(id).key },
		func(id int32) []byte { return e.enc.appendProc(nil, e.proc(id)) })

	segKeys := make(map[string]string)
	c := &config{objs: make([]int32, nobjs), procs: make([]int32, nprocs)}
	for id := int32(0); id < e.memo.nextID; id++ {
		if e.memo.rec(id).meta == memoFree {
			continue
		}
		key := e.memo.key(id)
		if len(key) != 4*(nobjs+nprocs) {
			t.Fatalf("%s: memo key of %d bytes, want %d", name, len(key), 4*(nobjs+nprocs))
		}
		for i := range c.objs {
			c.objs[i] = int32(binary.LittleEndian.Uint32(key[4*i:]))
		}
		for p := range c.procs {
			c.procs[p] = int32(binary.LittleEndian.Uint32(key[4*(nobjs+p):]))
		}
		if !bytes.Equal(e.idKey(c), key) {
			t.Fatalf("%s: memo key %x does not round-trip through idKey", name, key)
		}
		seg := string(e.appendSegKey(nil, c))
		if prev, dup := segKeys[seg]; dup {
			t.Fatalf("%s: id keys %x and %x have one segment key %x", name, prev, key, seg)
		}
		segKeys[seg] = string(key)
	}
	if len(segKeys) == 0 {
		t.Fatalf("%s: memo holds no entries", name)
	}
}

// cacheBenchExplorer returns an explorer for memoized sticky n=3 (one
// proposal of each value) after one full tree, so its intern tables and
// caches are warm, together with its root and the root's first pending
// process.
func cacheBenchExplorer(b *testing.B) (*explorer, *config, int) {
	b.Helper()
	e, root, err := engineExplorer(consensus.Sticky(3), consensusScripts([]int{0, 1, 0}), Options{Memoize: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.dfs(root, 0, e.tally(root)); err != nil {
		b.Fatal(err)
	}
	return e, root, 0
}

// BenchmarkTransCache is the transition cache's row in the per-layer
// ledger: the hit path of applyCached, indexed loads of its row.
func BenchmarkTransCache(b *testing.B) {
	e, c, p := cacheBenchExplorer(b)
	act := e.proc(c.procs[p]).Pending
	inv := e.pendingInv(c, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.applyCached(c, p, act.Obj, inv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepCache is the step cache's row in the per-layer ledger: the
// hit path of stepProc, indexed loads of its row plus the restore of the
// stepped process id.
func BenchmarkStepCache(b *testing.B) {
	e, c, p := cacheBenchExplorer(b)
	act := e.proc(c.procs[p]).Pending
	inv := e.pendingInv(c, p)
	cts, err := e.applyCached(c, p, act.Obj, inv)
	if err != nil {
		b.Fatal(err)
	}
	old := c.procs[p]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.stepProc(c, p, cts[0].resp, false); err != nil {
			b.Fatal(err)
		}
		c.procs[p] = old
		e.respN[p] = 0
	}
}

// BenchmarkIntern is the intern tables' row in the per-layer ledger: the
// lookup of an already interned object state and process state (encode
// the segment, probe the table, hit).
func BenchmarkIntern(b *testing.B) {
	e, c, p := cacheBenchExplorer(b)
	obj := e.obj(c.objs[0])
	ps := *e.proc(c.procs[p])
	b.Run("object", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = e.internObj(obj)
		}
	})
	b.Run("process", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = e.internProc(&ps)
		}
	})
}

// TestCacheHitsAllocFree pins the hit paths the benchmarks above measure:
// a transition-cache hit, a step-cache hit and an intern hit allocate
// nothing.
func TestCacheHitsAllocFree(t *testing.T) {
	e, c, err := engineExplorer(consensus.Sticky(3), consensusScripts([]int{0, 1, 0}), Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.dfs(c, 0, e.tally(c)); err != nil {
		t.Fatal(err)
	}
	act := e.proc(c.procs[0]).Pending
	inv := e.pendingInv(c, 0)
	cts, err := e.applyCached(c, 0, act.Obj, inv)
	if err != nil {
		t.Fatal(err)
	}
	old := c.procs[0]
	ps := *e.proc(old)
	var obj types.State = e.obj(c.objs[0])
	if a := testing.AllocsPerRun(100, func() {
		if _, err := e.applyCached(c, 0, act.Obj, inv); err != nil {
			panic(err)
		}
		if err := e.stepProc(c, 0, cts[0].resp, false); err != nil {
			panic(err)
		}
		c.procs[0] = old
		e.respN[0] = 0
		_ = e.internObj(obj)
		_ = e.internProc(&ps)
	}); a != 0 {
		t.Errorf("cache and intern hits: %v allocs, want 0", a)
	}
}

// TestStatsCacheCounters pins the cache and intern counters of Stats: a
// memoized run hits both caches far more often than it misses them, and
// every miss interned at most one new state. A history run steps like any
// other run — through both caches, interning its process states — while a
// Walk, which keeps its process states in scratch slots, interns none.
func TestStatsCacheCounters(t *testing.T) {
	rep, err := ConsensusKContext(context.Background(), consensus.Sticky(3), 2, Options{Memoize: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.TransHits <= s.TransMisses || s.StepHits <= s.StepMisses || s.TransMisses == 0 || s.StepMisses == 0 {
		t.Errorf("cache counters trans %d/%d step %d/%d, want hits > misses > 0",
			s.TransHits, s.TransMisses, s.StepHits, s.StepMisses)
	}
	if s.InternedObjs == 0 || s.InternedProcs == 0 {
		t.Errorf("interned %d object and %d process states, want both > 0", s.InternedObjs, s.InternedProcs)
	}
	var last Stats
	scripts := consensusScripts([]int{0, 1})
	if _, err := RunContext(context.Background(), consensus.TAS2(), scripts, Options{
		RecordHistory: true,
		OnProgress:    func(s Stats) { last = s },
	}); err != nil {
		t.Fatal(err)
	}
	if last.StepHits == 0 || last.StepMisses == 0 || last.InternedProcs == 0 {
		t.Errorf("history run: step %d/%d, %d interned process states, want the step cache hit and process states interned",
			last.StepHits, last.StepMisses, last.InternedProcs)
	}
	if last.TransHits+last.TransMisses == 0 || last.InternedObjs == 0 {
		t.Errorf("history run: trans %d/%d, %d interned object states, want the transition cache used and object states interned",
			last.TransHits, last.TransMisses, last.InternedObjs)
	}
	_, e, err := walk(consensus.TAS2(), scripts, Schedule{Seed: 1, CrashAfter: map[int]int{0: 1}, Recoveries: map[int]int{0: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.procTab.nextID; n != 0 {
		t.Errorf("walk: %d interned process states, want none", n)
	}
	if e.objTab.nextID == 0 {
		t.Error("walk: no interned object states, want the transition cache's")
	}
}
