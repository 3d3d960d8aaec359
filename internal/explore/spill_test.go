package explore

import (
	"bytes"
	"crypto/sha256"
	"testing"
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
	key, sum, ok := decodeSpillRecord(rec)
	if !ok {
		return
	}
	if enc := appendSpillRecord(nil, key, sum); !bytes.Equal(enc, rec) {
		t.Fatalf("accepted record re-encodes differently\nin:  %x\nout: %x", rec, enc)
	}
	flipped := make([]byte, len(rec))
	for i := range rec {
		copy(flipped, rec)
		flipped[i] ^= 0xff
		if _, _, ok := decodeSpillRecord(flipped); ok {
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

// TestSpillRoundTripAllocs pins the spill path's allocations once its
// buffers are warm: a store allocates at most the index's key string and
// a load at most the summary and its acc slice.
func TestSpillRoundTripAllocs(t *testing.T) {
	sp := newMemoSpill(t.TempDir(), nil)
	defer sp.close()
	key := []byte("alloc\x00key")
	sum := &summary{height: 4, nodes: 99, leaves: 12, acc: []int32{1, 3, 7}}
	if !sp.store(key, sum) {
		t.Fatal("store failed")
	}
	if _, ok := sp.load(key); !ok {
		t.Fatal("load missed")
	}
	if a := testing.AllocsPerRun(100, func() {
		if !sp.store(key, sum) {
			t.Fatal("store failed")
		}
	}); a > 1 {
		t.Errorf("store allocates %.1f times, want <= 1", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if _, ok := sp.load(key); !ok {
			t.Fatal("load missed")
		}
	}); a > 2 {
		t.Errorf("load allocates %.1f times, want <= 2", a)
	}
}

// BenchmarkSpill times one spill round trip on a real temp file: a store
// of a summary under a memo-sized key, then its load.
func BenchmarkSpill(b *testing.B) {
	sp := newMemoSpill(b.TempDir(), nil)
	defer sp.close()
	key := bytes.Repeat([]byte{0x5a}, 48)
	sum := &summary{height: 12, nodes: 4096, leaves: 512, acc: []int32{3, 5, 0, 8}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !sp.store(key, sum) {
			b.Fatal("store failed")
		}
		if _, ok := sp.load(key); !ok {
			b.Fatal("load missed")
		}
	}
}
