package explore

import (
	"os"
	"syscall"
	"testing"

	"waitfree/internal/fsx"
)

// countSpillFiles reports how many spill files live in dir.
func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// A transient write or read fault is absorbed by the unified retry
// policy: the entry round-trips, nothing is lost, no rebuild is spent.
func TestSpillTransientFaultsAbsorbed(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 1, Count: 1, Err: syscall.EIO},
		fsx.Rule{Op: fsx.OpReadAt, Nth: 1, Count: 1, Err: syscall.EIO},
	)
	sp := newMemoSpill(dir, ff)
	defer sp.close()

	sum := &summary{height: 2, nodes: 9, leaves: 3, acc: []int32{1, 2}}
	if !sp.store([]byte("key"), sum) {
		t.Fatal("store failed under a transient write fault")
	}
	got, ok := sp.load([]byte("key"))
	if !ok || got.nodes != sum.nodes {
		t.Fatalf("load under a transient read fault = %+v, %v", got, ok)
	}
	if sp.lost || sp.rebuilt || sp.broken {
		t.Fatalf("transient faults moved the ladder: lost=%v rebuilt=%v broken=%v",
			sp.lost, sp.rebuilt, sp.broken)
	}
	if sp.retries != 2 {
		t.Fatalf("retries = %d, want 2", sp.retries)
	}
}

// A write failure the retries cannot absorb buys exactly one rebuild:
// the fresh file keeps spilling, previously spilled entries are lost (the
// run degrades honestly), and the dead file does not survive on disk.
func TestSpillRebuildAfterUnabsorbedWriteFault(t *testing.T) {
	dir := t.TempDir()
	// The second store's write fails through the whole retry schedule
	// (WriteAt occurrences 2..1+Attempts), then the rebuild's fresh file
	// takes the write.
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 2, Count: int(fsx.DefaultRetry.Attempts), Err: syscall.EIO})
	sp := newMemoSpill(dir, ff)
	defer sp.close()
	sum := &summary{nodes: 5}
	if !sp.store([]byte("early"), sum) {
		t.Fatal("clean store failed")
	}
	if !sp.store([]byte("late"), sum) {
		t.Fatal("store did not survive via rebuild")
	}
	if !sp.rebuilt || sp.rebuilds != 1 {
		t.Fatalf("rebuilt=%v rebuilds=%d, want one rebuild", sp.rebuilt, sp.rebuilds)
	}
	if !sp.lost {
		t.Fatal("rebuild dropped spilled entries without flagging the run")
	}
	if sp.broken {
		t.Fatal("rebuild broke the tier")
	}
	if _, ok := sp.load([]byte("early")); ok {
		t.Fatal("pre-rebuild entry served from a discarded file")
	}
	if got, ok := sp.load([]byte("late")); !ok || got.nodes != sum.nodes {
		t.Fatalf("post-rebuild entry lost: %+v, %v", got, ok)
	}
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files on disk after rebuild, want 1", n)
	}
}

// A rebuild on an empty spill is invisible to the run: nothing was
// spilled yet, so nothing is lost and the run must not degrade.
func TestSpillRebuildOnEmptyTierDoesNotDegrade(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 1, Count: int(fsx.DefaultRetry.Attempts), Err: syscall.EIO})
	sp := newMemoSpill(dir, ff)
	defer sp.close()
	sum := &summary{nodes: 7}
	if !sp.store([]byte("first"), sum) {
		t.Fatal("first store did not survive via rebuild")
	}
	if !sp.rebuilt {
		t.Fatal("unabsorbed fault did not spend the rebuild")
	}
	if sp.lost {
		t.Fatal("rebuild of an empty tier flagged lost entries")
	}
	if got, ok := sp.load([]byte("first")); !ok || got.nodes != sum.nodes {
		t.Fatalf("entry lost across empty rebuild: %+v, %v", got, ok)
	}
}

// When the rebuild fails too, the tier breaks: stores degrade like an
// unconfigured spill, and the file is removed the moment the tier dies —
// a long-lived daemon must not leak memospill-*.wfspill files.
func TestSpillBreakRemovesFileImmediately(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 1, Count: -1, Err: syscall.EIO})
	sp := newMemoSpill(dir, ff)
	sum := &summary{nodes: 3}
	if sp.store([]byte("doomed"), sum) {
		t.Fatal("store reported success on a dead disk")
	}
	if !sp.broken || !sp.lost {
		t.Fatalf("persistent write faults did not break the tier: broken=%v lost=%v",
			sp.broken, sp.lost)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("broken tier leaked %d spill files", n)
	}
	// The dead tier answers like no spill at all, without touching disk.
	if sp.store([]byte("more"), sum) {
		t.Fatal("broken tier accepted a store")
	}
	if _, ok := sp.load([]byte("doomed")); ok {
		t.Fatal("broken tier served a hit")
	}
}

// close removes the spill file at tree completion even when everything
// was healthy — the other half of the no-leak contract.
func TestSpillCloseRemovesFile(t *testing.T) {
	dir := t.TempDir()
	sp := newMemoSpill(dir, nil)
	if !sp.store([]byte("k"), &summary{nodes: 1}) {
		t.Fatal("store failed")
	}
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files while live, want 1", n)
	}
	sp.close()
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("close leaked %d spill files", n)
	}
}

// Every op class the spill tier performs walks the ladder instead of
// wedging: under persistent faults on any one class, store/load never
// serve corrupt data, the tier ends in a lawful state, and a broken tier
// never leaves a file behind.
func TestSpillEveryOpClassFaultSweep(t *testing.T) {
	for _, op := range []fsx.Op{
		fsx.OpCreateTemp, fsx.OpWriteAt, fsx.OpReadAt, fsx.OpClose, fsx.OpRemove,
	} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: op, Nth: 1, Count: -1, Err: syscall.EIO})
			sp := newMemoSpill(dir, ff)
			sum := &summary{height: 1, nodes: 4, leaves: 2, acc: []int32{0, 1}}
			stored := sp.store([]byte("key"), sum)
			if got, ok := sp.load([]byte("key")); ok {
				if !stored {
					t.Fatal("load hit an entry store reported un-spilled")
				}
				if got.nodes != sum.nodes || got.height != sum.height {
					t.Fatalf("faulted %s served a corrupt summary: %+v", op, got)
				}
			} else if stored && !sp.lost && !sp.broken {
				t.Fatalf("stored entry missed without the run degrading")
			}
			sp.close()
			// Whatever the ladder decided, nothing may leak. A faulted
			// Remove can strand the file on the real disk — tolerate only
			// that op class.
			if n := countSpillFiles(t, dir); n != 0 && op != fsx.OpRemove {
				t.Fatalf("faulted %s leaked %d spill files", op, n)
			}
		})
	}
}
