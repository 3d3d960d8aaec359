package waitfree_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"waitfree"
	"waitfree/internal/faults"
)

// This file pins the result cache's core contract: a warm hit is
// byte-identical JSON to the cold run that stored it — for every kind,
// across process permutations, across cache reopens — and nothing
// partial, degraded, resumed, or corrupt is ever served as a verdict.

func openCache(t testing.TB, dir string) *waitfree.Cache {
	t.Helper()
	c, err := waitfree.OpenCache(waitfree.CacheOptions{Dir: dir})
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	return c
}

func marshal(t testing.TB, rep *waitfree.Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return data
}

// parityRequests is one representative, fast request per kind, plus a
// refuted consensus check, whose stored report carries a violation (and
// so exercises the violation-kind tags on the decode path). The factory
// builds a fresh Request each call so no state leaks between the cold and
// warm runs.
var parityRequests = []struct {
	name string
	mk   func() waitfree.Request
}{
	{"consensus", func() waitfree.Request {
		return waitfree.Request{
			Kind:           waitfree.KindConsensus,
			Implementation: waitfree.TAS2Consensus(),
		}
	}},
	{"consensus_refuted", func() waitfree.Request {
		return waitfree.Request{
			Kind:           waitfree.KindConsensus,
			Implementation: waitfree.NaiveRegisterConsensus(),
		}
	}},
	{"bound", func() waitfree.Request {
		return waitfree.Request{
			Kind:           waitfree.KindBound,
			Implementation: waitfree.Queue2Consensus(),
		}
	}},
	{"elimination", func() waitfree.Request {
		return waitfree.Request{
			Kind:           waitfree.KindElimination,
			Implementation: waitfree.TAS2Consensus(),
		}
	}},
	{"classification", func() waitfree.Request {
		return waitfree.Request{Kind: waitfree.KindClassification}
	}},
	{"synthesis", func() waitfree.Request {
		return waitfree.Request{
			Kind: waitfree.KindSynthesis,
			Objects: []waitfree.SynthObject{
				{Name: "cas", Spec: waitfree.NewCompareSwap(2, 3), Init: 2},
			},
			Synthesis: waitfree.SynthOptions{Depth: 1, Symmetric: true, Budget: 5e7},
		}
	}},
}

// TestCacheParityAllKinds runs each kind cold (stores), warm from memory
// (hits), and warm from a reopened cache (disk hit) — all three must
// marshal to identical bytes.
func TestCacheParityAllKinds(t *testing.T) {
	for _, tc := range parityRequests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cache := openCache(t, dir)

			req := tc.mk()
			req.Cache = cache
			cold, err := waitfree.Check(context.Background(), req)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			if cold.Cache == nil || cold.Cache.Hit || !cold.Cache.Stored {
				t.Fatalf("cold outcome: %+v", cold.Cache)
			}
			if cold.Elapsed != 0 {
				t.Error("cold report under an active cache has nonzero Elapsed; cold and warm runs cannot be byte-identical")
			}
			coldJSON := marshal(t, cold)
			if tc.name == "consensus_refuted" && (cold.OK() || cold.Consensus.Violation == nil) {
				t.Fatalf("naive register consensus was not refuted: %s", coldJSON)
			}

			warmReq := tc.mk()
			warmReq.Cache = cache
			warm, err := waitfree.Check(context.Background(), warmReq)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if warm.Cache == nil || !warm.Cache.Hit {
				t.Fatalf("warm outcome (want memory hit): %+v", warm.Cache)
			}
			if got := marshal(t, warm); !bytes.Equal(coldJSON, got) {
				t.Errorf("warm hit differs from cold run:\ncold: %s\nwarm: %s", coldJSON, got)
			}

			// A fresh Cache over the same directory has an empty memory
			// tier: this hit exercises the disk path.
			reopened := tc.mk()
			reopened.Cache = openCache(t, dir)
			disk, err := waitfree.Check(context.Background(), reopened)
			if err != nil {
				t.Fatalf("disk warm: %v", err)
			}
			if disk.Cache == nil || !disk.Cache.Hit {
				t.Fatalf("reopened outcome (want disk hit): %+v", disk.Cache)
			}
			if got := marshal(t, disk); !bytes.Equal(coldJSON, got) {
				t.Errorf("disk hit differs from cold run:\ncold: %s\ndisk: %s", coldJSON, got)
			}
			if disk.Kind != req.Kind || (cold.OK() != disk.OK()) {
				t.Errorf("rehydrated report disagrees: kind %s vs %s, OK %v vs %v",
					disk.Kind, req.Kind, disk.OK(), cold.OK())
			}
		})
	}
}

// TestCachePermutedImplementationHits checks the behavioral keying: a
// process permutation of a symmetric implementation is the same request,
// so it must be served from the entry its unpermuted twin stored.
func TestCachePermutedImplementationHits(t *testing.T) {
	cache := openCache(t, t.TempDir())
	opts := waitfree.ExploreOptions{Memoize: true}

	cold, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.CASConsensus(3),
		Explore:        opts,
		Cache:          cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Cache.Stored {
		t.Fatalf("cold run not stored: %+v", cold.Cache)
	}

	perm := *waitfree.CASConsensus(3)
	perm.Machines = append(perm.Machines[1:len(perm.Machines):len(perm.Machines)], perm.Machines[0])
	warm, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: &perm,
		Explore:        opts,
		Cache:          cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache == nil || !warm.Cache.Hit {
		t.Fatalf("permuted implementation missed the cache: %+v", warm.Cache)
	}
	if !bytes.Equal(marshal(t, cold), marshal(t, warm)) {
		t.Error("permuted hit is not byte-identical to the stored run")
	}
}

// TestCachePartialAndResumedBypass drives the three never-cache rules
// end to end: a partial run is not stored, a resumed run is uncacheable,
// and only the eventual complete fresh run populates the cache.
func TestCachePartialAndResumedBypass(t *testing.T) {
	cache := openCache(t, t.TempDir())
	mk := func() waitfree.Request {
		return waitfree.Request{
			Kind:           waitfree.KindConsensus,
			Implementation: waitfree.CASRegister3Consensus(),
			Explore:        waitfree.ExploreOptions{Memoize: true, Parallelism: 1},
			Cache:          cache,
		}
	}

	partial := mk()
	partial.Explore.MaxNodes = 500
	prep, err := waitfree.Check(context.Background(), partial)
	if err != nil {
		t.Fatalf("partial: %v", err)
	}
	if !prep.Consensus.Partial || prep.Checkpoint == nil {
		t.Fatalf("budgeted run did not degrade to partial: %+v", prep.Consensus)
	}
	if prep.Cache == nil || prep.Cache.Stored || prep.Cache.Hit {
		t.Fatalf("partial run touched the cache: %+v", prep.Cache)
	}

	resumed := mk()
	resumed.ResumeFrom = prep.Checkpoint
	rrep, err := waitfree.Check(context.Background(), resumed)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !rrep.OK() {
		t.Fatalf("resumed run did not complete: %+v", rrep.Consensus)
	}
	if rrep.Cache == nil || !rrep.Cache.Uncacheable || rrep.Cache.Stored || rrep.Cache.Hit {
		t.Fatalf("resumed run was not an uncacheable bypass: %+v", rrep.Cache)
	}

	// Neither of the above may have populated the entry: the fresh full
	// run must miss, then store, and only then do repeats hit.
	fresh, err := waitfree.Check(context.Background(), mk())
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	if fresh.Cache.Hit || !fresh.Cache.Stored {
		t.Fatalf("fresh run found a phantom entry: %+v", fresh.Cache)
	}
	repeat, err := waitfree.Check(context.Background(), mk())
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if !repeat.Cache.Hit {
		t.Fatalf("repeat run missed: %+v", repeat.Cache)
	}
	if !bytes.Equal(marshal(t, fresh), marshal(t, repeat)) {
		t.Error("repeat hit is not byte-identical to the fresh run")
	}
}

// TestCacheMemoBudgetUncacheable: a bounded memo table can evict and
// degrade counters, so such runs bypass the cache entirely (keying
// refuses them) rather than risking a stored not-quite-exact report.
func TestCacheMemoBudgetUncacheable(t *testing.T) {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.TAS2Consensus(),
		Explore:        waitfree.ExploreOptions{Memoize: true, MemoBudget: 8},
		Cache:          openCache(t, t.TempDir()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil || !rep.Cache.Uncacheable || rep.Cache.Stored || rep.Cache.Hit {
		t.Fatalf("MemoBudget run was not an uncacheable bypass: %+v", rep.Cache)
	}
}

// TestCacheCorruptedEntryIsMiss flips a byte in the stored file: the
// checksummed envelope detects it, the request re-runs fresh (a miss,
// never an error or a wrong verdict), and the entry heals.
func TestCacheCorruptedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	mk := func() waitfree.Request {
		return waitfree.Request{
			Kind:           waitfree.KindConsensus,
			Implementation: waitfree.TAS2Consensus(),
		}
	}

	cold := mk()
	cold.Cache = openCache(t, dir)
	crep, err := waitfree.Check(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if !crep.Cache.Stored {
		t.Fatalf("cold run not stored: %+v", crep.Cache)
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.wfres"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one cache file, got %v (err %v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh Cache (empty memory tier) must read the corrupt file, reject
	// it, and fall through to a fresh run that re-stores the entry.
	warm := mk()
	warm.Cache = openCache(t, dir)
	wrep, err := waitfree.Check(context.Background(), warm)
	if err != nil {
		t.Fatalf("corrupt entry surfaced as an error: %v", err)
	}
	if wrep.Cache.Hit {
		t.Fatalf("corrupt entry served as a hit: %+v", wrep.Cache)
	}
	if !wrep.Cache.Stored {
		t.Fatalf("healing store did not happen: %+v", wrep.Cache)
	}
	if !bytes.Equal(marshal(t, crep), marshal(t, wrep)) {
		t.Error("re-run after corruption differs from the original run")
	}
	healed := mk()
	healed.Cache = openCache(t, dir)
	hrep, err := waitfree.Check(context.Background(), healed)
	if err != nil {
		t.Fatal(err)
	}
	if !hrep.Cache.Hit {
		t.Fatalf("healed entry missed: %+v", hrep.Cache)
	}
}

// BenchmarkCheckCached measures warm hits on the memoized CAS(4)
// consensus check under the full crash-stop fault model (every process
// may crash — the paper's wait-freedom statement, Section 2.2) and
// reports the cold/warm speedup. The fault model is part of the content
// key, so the warm path pays the same key-derivation cost as any other
// request; it only changes how much exhaustive work the cold run — the
// kind of expensive conclusive verdict the cache exists to serve —
// amortizes away (the acceptance bar is >= 100x).
func BenchmarkCheckCached(b *testing.B) {
	cache := openCache(b, b.TempDir())
	mk := func() waitfree.Request {
		return waitfree.Request{
			Kind:           waitfree.KindConsensus,
			Implementation: waitfree.CASConsensus(4),
			Explore: waitfree.ExploreOptions{
				Memoize: true,
				Faults:  faults.Model{MaxCrashes: 4},
			},
			Cache: cache,
		}
	}
	coldStart := time.Now()
	cold, err := waitfree.Check(context.Background(), mk())
	coldDur := time.Since(coldStart)
	if err != nil || !cold.Cache.Stored {
		b.Fatalf("cold: err=%v outcome=%+v", err, cold.Cache)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := waitfree.Check(context.Background(), mk())
		if err != nil || !rep.Cache.Hit {
			b.Fatalf("warm: err=%v outcome=%+v", err, rep.Cache)
		}
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		warm := b.Elapsed() / time.Duration(b.N)
		if warm > 0 {
			b.ReportMetric(float64(coldDur)/float64(warm), "cold/warm-x")
		}
	}
}
