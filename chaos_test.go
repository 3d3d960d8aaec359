package waitfree_test

import (
	"bytes"
	"context"
	"syscall"
	"testing"

	"waitfree"
	"waitfree/internal/fsx"
)

// This file is the storage chaos suite: full verification runs over a
// fault-injected filesystem, pinning the two halves of the unified
// storage-fault contract. A schedule the retry policy absorbs must be
// invisible — the report is byte-identical to a clean run's. A schedule
// it cannot absorb must degrade honestly — same verdict, Degraded set,
// the ladder's counters visible — and never corrupt a report or wedge
// the run.

// chaosRequest is the reference spill-backed configuration: single
// worker and fixed symmetry so the op sequence (and therefore every
// Nth-op fault schedule) is deterministic, and a memo budget small
// enough that the spill tier does real work. The spill writes whole 4 KiB
// blocks, so the instance must spill several blocks a tree for its
// faults to reach the disk: each of the eight CASRegister3 trees under
// one crash writes six blocks and reads 190 records back.
func chaosRequest(fs fsx.FS, spillDir string) waitfree.Request {
	return waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.CASRegister3Consensus(),
		Explore: waitfree.ExploreOptions{
			Memoize:      true,
			MemoBudget:   4,
			MemoSpillDir: spillDir,
			Parallelism:  1,
			Symmetry:     waitfree.SymmetryOff,
			Faults:       waitfree.FaultModel{MaxCrashes: 1},
			FS:           fs,
		},
	}
}

// requireRulesFired fails the test unless ff performed every occurrence
// each rule scripts: a rule that never fired proves nothing.
func requireRulesFired(t *testing.T, ff *fsx.FaultFS, rules []fsx.Rule) {
	t.Helper()
	for _, r := range rules {
		last := max(r.Nth, 1) + max(r.Count, 1) - 1
		if n := ff.CountOf(r.Op); n < last {
			t.Errorf("rule %+v never fired in full: %d %s operations, want %d", r, n, r.Op, last)
		}
	}
}

func runChaos(t *testing.T, fs fsx.FS, spillDir string) *waitfree.Report {
	t.Helper()
	rep, err := waitfree.Check(context.Background(), chaosRequest(fs, spillDir))
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	rep.Canonicalize()
	return rep
}

func TestChaosAbsorbedScheduleIsInvisible(t *testing.T) {
	clean := runChaos(t, nil, t.TempDir())
	if clean.Consensus.Degraded {
		t.Fatalf("clean spill-backed run degraded: %s", clean.Consensus.Summary())
	}

	// Every fault here dies inside one retry schedule: two transient
	// errors per op class (the third attempt lands) and one torn write
	// the rewrite repairs.
	rules := []fsx.Rule{
		{Op: fsx.OpWriteAt, Nth: 1, Count: 2, Err: syscall.EIO},
		{Op: fsx.OpWriteAt, Nth: 7, Count: 1, Kind: fsx.FaultTorn},
		{Op: fsx.OpReadAt, Nth: 1, Count: 2, Err: syscall.EIO},
		{Op: fsx.OpCreateTemp, Nth: 1, Count: 1, Err: syscall.EIO},
	}
	ff := fsx.NewFaultFS(nil, 1, rules...)
	faulted := runChaos(t, ff, t.TempDir())
	if ff.Injected() == 0 {
		t.Fatal("fault schedule never fired; the test proved nothing")
	}
	requireRulesFired(t, ff, rules)
	if faulted.Consensus.Degraded {
		t.Fatalf("absorbed schedule degraded the run: %s", faulted.Consensus.Summary())
	}
	if faulted.Consensus.MemoHits != clean.Consensus.MemoHits {
		t.Errorf("absorbed schedule cost memo hits: %d, clean %d",
			faulted.Consensus.MemoHits, clean.Consensus.MemoHits)
	}
	if got, want := marshal(t, faulted), marshal(t, clean); !bytes.Equal(got, want) {
		t.Errorf("absorbed schedule changed the report:\nclean:   %s\nfaulted: %s", want, got)
	}
}

func TestChaosUnabsorbedScheduleDegradesHonestly(t *testing.T) {
	clean := runChaos(t, nil, t.TempDir())

	// Every spill write fails forever: retries exhaust, the one rebuild
	// fails too, the tier breaks. The run must finish with the same
	// verdict, flagged Degraded, with the ladder's counters visible.
	rules := []fsx.Rule{{Op: fsx.OpWriteAt, Nth: 1, Count: -1, Err: syscall.EIO}}
	ff := fsx.NewFaultFS(nil, 1, rules...)
	sick, err := waitfree.Check(context.Background(), chaosRequest(ff, t.TempDir()))
	if err != nil {
		t.Fatalf("check over a dead spill disk: %v", err)
	}
	requireRulesFired(t, ff, rules)
	if sick.OK() != clean.OK() {
		t.Fatalf("storage faults changed the verdict: ok=%v, clean ok=%v", sick.OK(), clean.OK())
	}
	if !sick.Consensus.Degraded {
		t.Fatal("broken spill tier not reported as Degraded")
	}
	st := sick.Consensus.Stats
	if st == nil {
		t.Fatal("degraded run carries no stats block")
	}
	if !st.SpillBroken {
		t.Errorf("stats do not report the broken spill tier: %+v", st)
	}
	if st.StorageRetries == 0 {
		t.Errorf("stats show no absorbed retry attempts: %+v", st)
	}
	if sick.Consensus.Partial {
		t.Error("storage faults turned a complete run partial")
	}
}

// A silent bit flip on the spill read path must never change a report:
// the per-record checksums catch it, the entry's hit is lost (the run is
// flagged Degraded), and the verdict fields stay exactly the clean run's.
func TestChaosBitFlipNeverCorruptsVerdict(t *testing.T) {
	clean := runChaos(t, nil, t.TempDir())
	rules := []fsx.Rule{{Op: fsx.OpReadAt, Nth: 3, Count: 2, Kind: fsx.FaultBitFlip}}
	for seed := int64(1); seed <= 4; seed++ {
		ff := fsx.NewFaultFS(nil, seed, rules...)
		sick, err := waitfree.Check(context.Background(), chaosRequest(ff, t.TempDir()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ff.Injected() == 0 {
			t.Fatalf("seed %d: no bit was flipped; the test proved nothing", seed)
		}
		requireRulesFired(t, ff, rules)
		if !sick.Consensus.Degraded {
			t.Errorf("seed %d: flipped records went uncaught: the run is not Degraded", seed)
		}
		if sick.OK() != clean.OK() {
			t.Fatalf("seed %d: bit flips changed the verdict", seed)
		}
		if sick.Consensus.Agreement != clean.Consensus.Agreement ||
			sick.Consensus.Validity != clean.Consensus.Validity ||
			sick.Consensus.WaitFree != clean.Consensus.WaitFree {
			t.Fatalf("seed %d: bit flips changed the verdict fields", seed)
		}
	}
}
