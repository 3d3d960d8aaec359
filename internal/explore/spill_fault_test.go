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
// policy: the entry round-trips through the file, nothing is lost, no
// rebuild is spent.
func TestSpillTransientFaultsAbsorbed(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 1, Count: 1, Err: syscall.EIO},
		fsx.Rule{Op: fsx.OpReadAt, Nth: 1, Count: 1, Err: syscall.EIO},
	)
	sp := newMemoSpill(dir, ff)
	defer sp.close()

	keys, ok := fillBlock(sp, "key")
	if !ok {
		t.Fatal("block write failed under a transient write fault")
	}
	mustLoad(t, sp, keys[0], spillSum(1))
	if ff.CountOf(fsx.OpWriteAt) != 2 || ff.CountOf(fsx.OpReadAt) != 2 {
		t.Fatalf("WriteAt %d, ReadAt %d calls, want each fault and its retry",
			ff.CountOf(fsx.OpWriteAt), ff.CountOf(fsx.OpReadAt))
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
// the records already written are lost (the run degrades honestly), the
// pending block goes to the fresh file with every record it holds, the
// tier keeps spilling, and the dead file does not survive on disk.
func TestSpillRebuildAfterUnabsorbedWriteFault(t *testing.T) {
	dir := t.TempDir()
	// The second block write fails through the whole retry schedule
	// (WriteAt occurrences 2..1+Attempts), then the rebuild's fresh file
	// takes the block.
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 2, Count: int(fsx.DefaultRetry.Attempts), Err: syscall.EIO})
	sp := newMemoSpill(dir, ff)
	defer sp.close()
	early, ok := fillBlock(sp, "early")
	if !ok || sp.rebuilt {
		t.Fatalf("clean block write: ok=%v rebuilt=%v", ok, sp.rebuilt)
	}
	late, ok := fillBlock(sp, "late")
	if !ok {
		t.Fatal("block write did not survive via rebuild")
	}
	if !sp.rebuilt || sp.rebuilds != 1 {
		t.Fatalf("rebuilt=%v rebuilds=%d, want one rebuild", sp.rebuilt, sp.rebuilds)
	}
	if !sp.lost {
		t.Fatal("rebuild dropped written entries without flagging the run")
	}
	if sp.broken {
		t.Fatal("rebuild broke the tier")
	}
	if _, ok := sp.load(early[0], spillHash(early[0])); ok {
		t.Fatal("pre-rebuild entry served from a discarded file")
	}
	// late[0] sits wholly in the rewritten block; the head of the last
	// early record, written to the dead file, is gone with it.
	mustLoad(t, sp, late[0], spillSum(1))
	mustLoad(t, sp, late[len(late)-1], spillSum(len(late)))
	if _, ok := sp.load(early[len(early)-1], spillHash(early[len(early)-1])); ok {
		t.Fatal("record straddling into the dead file served")
	}
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files on disk after rebuild, want 1", n)
	}
}

// A rebuild on an empty spill file is invisible to the run: nothing was
// written yet, so the pending block goes to the fresh file whole, nothing
// is lost and the run must not degrade.
func TestSpillRebuildOnEmptyTierDoesNotDegrade(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 1, Count: int(fsx.DefaultRetry.Attempts), Err: syscall.EIO})
	sp := newMemoSpill(dir, ff)
	defer sp.close()
	keys, ok := fillBlock(sp, "first")
	if !ok {
		t.Fatal("first block write did not survive via rebuild")
	}
	if !sp.rebuilt {
		t.Fatal("unabsorbed fault did not spend the rebuild")
	}
	if sp.lost {
		t.Fatal("rebuild of an empty file flagged lost entries")
	}
	mustLoad(t, sp, keys[0], spillSum(1))
	mustLoad(t, sp, keys[len(keys)-1], spillSum(len(keys)))
}

// When the rebuild fails too, the tier breaks: stores degrade like an
// unconfigured spill, and the file is removed the moment the tier dies —
// a long-lived daemon must not leak memospill-*.wfspill files.
func TestSpillBreakRemovesFileImmediately(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, 1,
		fsx.Rule{Op: fsx.OpWriteAt, Nth: 1, Count: -1, Err: syscall.EIO})
	sp := newMemoSpill(dir, ff)
	keys, ok := fillBlock(sp, "doomed")
	if ok {
		t.Fatal("block write reported success on a dead disk")
	}
	if !sp.broken || !sp.lost {
		t.Fatalf("persistent write faults did not break the tier: broken=%v lost=%v",
			sp.broken, sp.lost)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("broken tier leaked %d spill files", n)
	}
	// The dead tier answers like no spill at all, without touching disk.
	calls := len(ff.Trace())
	if sp.store([]byte("more"), spillHash([]byte("more")), spillSum(1)) {
		t.Fatal("broken tier accepted a store")
	}
	if _, ok := sp.load(keys[0], spillHash(keys[0])); ok {
		t.Fatal("broken tier served a hit")
	}
	if n := len(ff.Trace()) - calls; n != 0 {
		t.Fatalf("broken tier made %d I/O calls", n)
	}
}

// close removes the spill file at tree completion even when everything
// was healthy — the other half of the no-leak contract.
func TestSpillCloseRemovesFile(t *testing.T) {
	dir := t.TempDir()
	sp := newMemoSpill(dir, nil)
	if _, ok := fillBlock(sp, "k"); !ok {
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
// wedging: under persistent faults on any one class, a store that writes
// its block and a load from the file never serve corrupt data, the tier
// ends in a lawful state, and a broken tier never leaves a file behind.
func TestSpillEveryOpClassFaultSweep(t *testing.T) {
	for _, op := range []fsx.Op{
		fsx.OpCreateTemp, fsx.OpWriteAt, fsx.OpReadAt, fsx.OpClose, fsx.OpRemove,
	} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			ff := fsx.NewFaultFS(nil, 1, fsx.Rule{Op: op, Nth: 1, Count: -1, Err: syscall.EIO})
			sp := newMemoSpill(dir, ff)
			key := []byte("key")
			sum := &summary{height: 1, nodes: 4, leaves: 2, acc: []int32{0, 1}}
			stored := sp.store(key, spillHash(key), sum) && sp.flush()
			if got, ok := sp.load(key, spillHash(key)); ok {
				if !stored {
					t.Fatal("load hit an entry store reported un-spilled")
				}
				if got.nodes != sum.nodes || got.height != sum.height {
					t.Fatalf("faulted %s served a corrupt summary: %+v", op, got)
				}
			} else if stored && !sp.lost && !sp.broken {
				t.Fatalf("stored entry missed without the run degrading")
			}
			if (op == fsx.OpCreateTemp || op == fsx.OpWriteAt || op == fsx.OpReadAt) && !sp.lost {
				t.Fatalf("persistent %s faults lost nothing", op)
			}
			sp.close()
			// Whatever the ladder decided, nothing may leak. A faulted
			// Remove can strand the file on the real disk — tolerate only
			// that op class.
			if n := countSpillFiles(t, dir); n != 0 && op != fsx.OpRemove {
				t.Fatalf("faulted %s leaked %d spill files", op, n)
			}
			if ff.Injected() == 0 {
				t.Fatalf("no %s fault fired", op)
			}
		})
	}
}
