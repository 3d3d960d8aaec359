package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/fsx"
)

// spillSeeds are valid spill records for the codec tests: an empty key
// and summary, a key with separator bytes, and extreme field values.
func spillSeeds() [][]byte {
	cases := []struct {
		key string
		sum summary
	}{
		{"", summary{}},
		{"raw\nbytes\x00with separators", summary{height: 3, nodes: 42, leaves: 7, acc: []int32{0, 2, 5}}},
		{"k", summary{height: -1, nodes: 1 << 62, leaves: -1 << 40, acc: []int32{-1 << 31, 1<<31 - 1}}},
	}
	var recs [][]byte
	for _, c := range cases {
		recs = append(recs, appendSpillRecord(nil, []byte(c.key), &c.sum))
	}
	return recs
}

// checkSpillRecord asserts the decoder's contract on rec: no panic, an
// accepted record re-encodes to its own bytes, and a one-byte flip
// anywhere in an accepted record is rejected.
func checkSpillRecord(t *testing.T, rec []byte) {
	t.Helper()
	var sum summary
	key, ok := decodeSpillRecord(rec, &sum)
	if !ok {
		return
	}
	if enc := appendSpillRecord(nil, key, &sum); !bytes.Equal(enc, rec) {
		t.Fatalf("accepted record re-encodes differently\nin:  %x\nout: %x", rec, enc)
	}
	flipped := make([]byte, len(rec))
	for i := range rec {
		copy(flipped, rec)
		flipped[i] ^= 0xff
		if _, ok := decodeSpillRecord(flipped, &sum); ok {
			t.Fatalf("record with byte %d flipped accepted: %x", i, flipped)
		}
	}
}

// FuzzSpillRecord feeds arbitrary bytes to decodeSpillRecord, both as
// they come and sealed with their own SHA-256 (so the key and summary
// parsers behind the checksum see arbitrary bytes too). The decoder must
// never panic, an accepted record must re-encode to the same bytes, and
// a one-byte flip anywhere in an accepted record must be refused. Besides
// the valid records, the seeds hold bodies a lax parser would accept once
// sealed: padded, with an overlong (non-minimal) key length, and with an
// acc count far beyond the bytes left.
func FuzzSpillRecord(f *testing.F) {
	for _, rec := range spillSeeds() {
		body := rec[:len(rec)-sha256.Size]
		f.Add(rec)
		f.Add(body)
		f.Add(append(body[:len(body):len(body)], 0))
		f.Add(append([]byte{0x80 | body[0], 0}, body[1:]...))
	}
	// Empty key, zero height, nodes and leaves, then an acc count of 1<<62:
	// a parser that let it size the slice would panic in make.
	f.Add([]byte{0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSpillRecord(t, data)
		h := sha256.Sum256(data)
		checkSpillRecord(t, append(data[:len(data):len(data)], h[:]...))
	})
}

// spillHash is the hash the memo table hands the spill for key.
func spillHash(key []byte) uint32 {
	return uint32(hashKey(key))
}

// fillBlock stores records under fresh keys "prefix-NNNN" (a few dozen
// bytes each, so records straddle block boundaries) until a store fills
// the pending block, which store then writes, or a store fails. It returns the keys
// and the last store's result.
func fillBlock(sp *memoSpill, prefix string) (keys [][]byte, ok bool) {
	w := sp.writes
	for {
		k := []byte(fmt.Sprintf("%s-%04d", prefix, len(keys)))
		keys = append(keys, k)
		if ok = sp.store(k, spillHash(k), spillSum(len(keys))); !ok || sp.writes > w {
			return keys, ok
		}
	}
}

// spillSum is fillBlock's summary for its i-th key.
func spillSum(i int) *summary {
	return &summary{height: 1, nodes: int64(i % 64), leaves: 1, acc: []int32{int32(i % 60)}}
}

// mustLoad loads key and checks that it returns want.
func mustLoad(t *testing.T, sp *memoSpill, key []byte, want *summary) {
	t.Helper()
	got, ok := sp.load(key, spillHash(key))
	if !ok {
		t.Fatalf("load %q missed", key)
	}
	if got.height != want.height || got.nodes != want.nodes || got.leaves != want.leaves ||
		!slices.Equal(got.acc, want.acc) {
		t.Fatalf("load %q = %+v, want %+v", key, got, want)
	}
}

// slotOf returns the index slot of key's live record.
func slotOf(t *testing.T, sp *memoSpill, key []byte) spillSlot {
	t.Helper()
	for _, s := range sp.index {
		if s.n != 0 && s.off >= sp.base && s.hash == spillHash(key) {
			return s
		}
	}
	t.Fatalf("no slot for %q", key)
	return spillSlot{}
}

// A store costs no I/O until the block fills: loads of pending records
// are served from the block without a read, a full block is one write
// of exactly spillBlockSize bytes, and a record that straddles the
// boundary is served from one read of its head plus the block.
func TestSpillLoadFromPendingBlock(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, 1)
	sp := newMemoSpill(dir, ff)
	defer sp.close()
	a, b := []byte("pending-a"), []byte("pending-b")
	sa, sb := &summary{height: 2, nodes: 9, leaves: 3, acc: []int32{1, 2}}, &summary{nodes: 1}
	if !sp.store(a, spillHash(a), sa) || !sp.store(b, spillHash(b), sb) {
		t.Fatal("store failed")
	}
	mustLoad(t, sp, a, sa)
	mustLoad(t, sp, b, sb)
	if n := ff.CountOf(fsx.OpWriteAt) + ff.CountOf(fsx.OpReadAt) + ff.CountOf(fsx.OpCreateTemp); n != 0 {
		t.Fatalf("pending stores and loads made %d I/O calls", n)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files before the first block filled", n)
	}

	keys, ok := fillBlock(sp, "fill")
	if !ok || sp.writes != 1 || sp.flushed != spillBlockSize || ff.CountOf(fsx.OpWriteAt) != 1 {
		t.Fatalf("filling a block: ok=%v writes=%d flushed=%d WriteAt calls=%d, want one %d-byte write",
			ok, sp.writes, sp.flushed, ff.CountOf(fsx.OpWriteAt), spillBlockSize)
	}
	last := keys[len(keys)-1]
	if s := slotOf(t, sp, last); !(s.off < sp.flushed && s.off+int64(s.n) > sp.flushed) {
		t.Fatalf("last record [%d, %d) does not straddle the block boundary %d", s.off, s.off+int64(s.n), sp.flushed)
	}
	reads := ff.CountOf(fsx.OpReadAt)
	mustLoad(t, sp, last, spillSum(len(keys)))
	if got := ff.CountOf(fsx.OpReadAt) - reads; got != 1 {
		t.Fatalf("straddling load made %d reads, want 1", got)
	}
	mustLoad(t, sp, a, sa)
	mustLoad(t, sp, keys[3], spillSum(4))
	if sp.lost || sp.broken || sp.rebuilt {
		t.Fatalf("healthy spill moved the ladder: lost=%v broken=%v rebuilt=%v", sp.lost, sp.broken, sp.rebuilt)
	}
}

// A bit flip in a written record is caught by its checksum: that record
// is dropped for good (the run degrades), while its neighbours in the
// same block keep serving and the tier keeps working.
func TestSpillBitFlipDropsOnlyItsRecord(t *testing.T) {
	sp := newMemoSpill(t.TempDir(), nil)
	defer sp.close()
	keys, ok := fillBlock(sp, "flip")
	if !ok || sp.writes != 1 {
		t.Fatalf("fill: ok=%v writes=%d", ok, sp.writes)
	}
	i := len(keys) / 2
	s := slotOf(t, sp, keys[i])
	var b [1]byte
	pos := s.off - sp.base + int64(s.n)/2
	if _, err := sp.f.ReadAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := sp.f.WriteAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	if _, ok := sp.load(keys[i], spillHash(keys[i])); ok {
		t.Fatal("flipped record served")
	}
	if !sp.lost || sp.broken {
		t.Fatalf("flip: lost=%v broken=%v, want a lost entry and a live tier", sp.lost, sp.broken)
	}
	if _, ok := sp.load(keys[i], spillHash(keys[i])); ok {
		t.Fatal("dropped record served on a second lookup")
	}
	mustLoad(t, sp, keys[i-1], spillSum(i))
	mustLoad(t, sp, keys[i+1], spillSum(i+2))
	k := []byte("after")
	if !sp.store(k, spillHash(k), spillSum(7)) {
		t.Fatal("tier stopped accepting stores after a confined corruption")
	}
	mustLoad(t, sp, k, spillSum(7))
}

// Two keys whose hashes collide share a probe run: each load checks the
// stored key and probes past the other's record, serving the right
// summary, and a third key of the same hash misses. None of it is a lost
// entry.
func TestSpillHashCollisionDoesNotDegrade(t *testing.T) {
	sp := newMemoSpill(t.TempDir(), nil)
	defer sp.close()
	const h = 0xfeedbeef
	a, b, c := []byte("collide-a"), []byte("collide-b"), []byte("collide-c")
	sa, sb := &summary{nodes: 11, acc: []int32{1}}, &summary{nodes: 22, acc: []int32{2}}
	if !sp.store(a, h, sa) {
		t.Fatal("store failed")
	}
	if _, ok := fillBlock(sp, "between"); !ok {
		t.Fatal("fill failed")
	}
	if !sp.store(b, h, sb) {
		t.Fatal("store failed")
	}
	// a is in the file, b in the pending block; both orders of the probe.
	for _, k := range []struct {
		key []byte
		sum *summary
	}{{a, sa}, {b, sb}, {a, sa}} {
		got, ok := sp.load(k.key, h)
		if !ok || got.nodes != k.sum.nodes || !slices.Equal(got.acc, k.sum.acc) {
			t.Fatalf("load %q under a collision = %+v, %v; want %+v", k.key, got, ok, k.sum)
		}
	}
	if _, ok := sp.load(c, h); ok {
		t.Fatal("a colliding key never stored was served")
	}
	if sp.lost || sp.broken {
		t.Fatalf("a hash collision degraded the tier: lost=%v broken=%v", sp.lost, sp.broken)
	}
	// A corrupt record early in the probe run drops only itself: the probe
	// goes on to the colliding key's record.
	if _, err := sp.f.WriteAt([]byte{'#'}, 1); err != nil {
		t.Fatal(err)
	}
	if got, ok := sp.load(b, h); !ok || got.nodes != sb.nodes {
		t.Fatalf("load past a dropped colliding record = %+v, %v; want %+v", got, ok, sb)
	}
	if _, ok := sp.load(a, h); ok || !sp.lost {
		t.Fatalf("corrupt record: served %v, lost=%v", ok, sp.lost)
	}
}

// nextSpillKey writes the next value of *n into the last 8 bytes of key,
// making it a fresh key in place, and returns its hash.
func nextSpillKey(key []byte, n *uint64) uint32 {
	*n++
	binary.LittleEndian.PutUint64(key[len(key)-8:], *n)
	return spillHash(key)
}

// TestSpillRoundTripAllocs pins the spill path's allocations once its
// buffers, index and file are warm: none for a store, a store that
// writes its block, a load from the pending block or a load from the
// file.
func TestSpillRoundTripAllocs(t *testing.T) {
	sp := newMemoSpill(t.TempDir(), nil)
	defer sp.close()
	for i := 0; i < 4; i++ {
		if _, ok := fillBlock(sp, fmt.Sprintf("warm%d", i)); !ok {
			t.Fatal("warm-up store failed")
		}
	}
	key := []byte("alloc\x00key-########")
	var n uint64
	h := nextSpillKey(key, &n)
	sum := &summary{height: 4, nodes: 99, leaves: 12, acc: []int32{1, 3, 7}}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"store", func() {
			if !sp.store(key, nextSpillKey(key, &n), sum) {
				t.Fatal("store failed")
			}
		}},
		{"store+write", func() {
			if !sp.store(key, nextSpillKey(key, &n), sum) || !sp.flush() {
				t.Fatal("store failed")
			}
		}},
		{"load/pending", func() {
			h := nextSpillKey(key, &n)
			if !sp.store(key, h, sum) {
				t.Fatal("store failed")
			}
			if _, ok := sp.load(key, h); !ok {
				t.Fatal("load missed")
			}
		}},
		{"load/file", func() {
			if _, ok := sp.load(key, h); !ok {
				t.Fatal("load missed")
			}
		}},
	} {
		// The index must not grow inside the measurement: start each case
		// from a clear index with the warm-up's capacity.
		sp.close()
		if c.name == "load/file" && (!sp.store(key, h, sum) || !sp.flush()) {
			t.Fatal("store failed")
		}
		if a := testing.AllocsPerRun(50, c.op); a != 0 {
			t.Errorf("%s allocates %.1f times, want 0", c.name, a)
		}
	}
}

// BenchmarkSpill times one spill round trip of a memo-sized record under
// a fresh key: a store, then its load. In pending the load is served
// from the pending block, and the store writes a block once per 4 KiB of
// records; in flushed every store's block is written at once and the
// load reads the record back from the file, so even one iteration
// reaches the disk.
func BenchmarkSpill(b *testing.B) {
	key := bytes.Repeat([]byte{0x5a}, 48)
	sum := &summary{height: 12, nodes: 4096, leaves: 512, acc: []int32{3, 5, 0, 8}}
	for _, flushed := range []bool{false, true} {
		name := "pending"
		if flushed {
			name = "flushed"
		}
		b.Run(name, func(b *testing.B) {
			sp := newMemoSpill(b.TempDir(), nil)
			defer sp.close()
			var n uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := nextSpillKey(key, &n)
				if !sp.store(key, h, sum) || flushed && !sp.flush() {
					b.Fatal("store failed")
				}
				if _, ok := sp.load(key, h); !ok {
					b.Fatal("load missed")
				}
				if sp.used == 1<<15 {
					// A tree's worth of entries: start the next tree, as
					// release and reset do, keeping the index's storage.
					sp.close()
				}
			}
		})
	}
}

// TestSpillStatsReportVolume pins the spill tier's volume counters: a
// spilling run reports the record bytes it spilled and the blocks it
// wrote, each write a whole block, so SpillWrites stays within
// ⌈SpillBytes/4096⌉ plus one per tree; a run without a spill tier
// reports neither.
func TestSpillStatsReportVolume(t *testing.T) {
	im := consensus.CASRegister3()
	for _, par := range []int{1, 2} {
		res, err := ConsensusKContext(context.Background(), im, 2, Options{
			Memoize: true, MemoBudget: 4, MemoSpillDir: t.TempDir(), Faults: oneCrash, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.SpillBytes == 0 || st.SpillWrites == 0 {
			t.Fatalf("parallelism %d: spill run reports %d writes, %d bytes", par, st.SpillWrites, st.SpillBytes)
		}
		if bound := (st.SpillBytes+spillBlockSize-1)/spillBlockSize + int64(st.TreesTotal); st.SpillWrites > bound {
			t.Errorf("parallelism %d: %d writes for %d bytes over %d trees, want at most %d",
				par, st.SpillWrites, st.SpillBytes, st.TreesTotal, bound)
		}
	}
	res, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, MemoBudget: 4, Faults: oneCrash})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.SpillBytes != 0 || st.SpillWrites != 0 {
		t.Errorf("run without a spill tier reports %d writes, %d bytes", st.SpillWrites, st.SpillBytes)
	}
}
