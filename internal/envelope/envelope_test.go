package envelope

import (
	"bytes"
	"errors"
	"testing"
)

const (
	testMagic = "wftest v1"
	testKind  = "rec"
)

func testRecords() ([]byte, [][]byte) {
	header := []byte(`{"key":"abc"}`)
	records := [][]byte{
		[]byte(`{"n":1}`),
		[]byte(`{"n":2}`),
		[]byte(`{"n":3}`),
	}
	return header, records
}

func TestEnvelopeRoundTrip(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	gotHeader, gotRecords, err := Decode(testMagic, testKind, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(gotHeader, header) {
		t.Errorf("header = %q, want %q", gotHeader, header)
	}
	if len(gotRecords) != len(records) {
		t.Fatalf("got %d records, want %d", len(gotRecords), len(records))
	}
	for i := range records {
		if !bytes.Equal(gotRecords[i], records[i]) {
			t.Errorf("record %d = %q, want %q", i, gotRecords[i], records[i])
		}
	}
}

func TestEnvelopeRoundTripEmpty(t *testing.T) {
	data := Encode(testMagic, testKind, []byte("h"), nil)
	header, records, err := Decode(testMagic, testKind, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if string(header) != "h" || len(records) != 0 {
		t.Fatalf("got header %q, %d records", header, len(records))
	}
}

func TestEnvelopeWrongMagicOrKind(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	if _, _, err := Decode("other v1", testKind, data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong magic: got %v, want ErrCorrupt", err)
	}
	if _, _, err := Decode(testMagic, "blob", data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong kind: got %v, want ErrCorrupt", err)
	}
}

// Flipping a byte inside record 2 must fail the decode but salvage the
// header and record 1, each individually checksum-verified.
func TestEnvelopeSalvagesPrefixOnCorruption(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	corrupt := bytes.Replace(data, []byte(`{"n":2}`), []byte(`{"n":9}`), 1)
	if bytes.Equal(corrupt, data) {
		t.Fatal("corruption did not apply")
	}
	gotHeader, gotRecords, err := Decode(testMagic, testKind, corrupt)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(gotHeader, header) {
		t.Errorf("salvaged header = %q, want %q", gotHeader, header)
	}
	if len(gotRecords) != 1 || !bytes.Equal(gotRecords[0], records[0]) {
		t.Errorf("salvaged records = %q, want just %q", gotRecords, records[0])
	}
}

// Truncation mid-record keeps every complete record before the tear.
func TestEnvelopeSalvagesPrefixOnTruncation(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	cut := bytes.Index(data, []byte(`{"n":3}`)) + 3 // tear inside record 3
	gotHeader, gotRecords, err := Decode(testMagic, testKind, data[:cut])
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(gotHeader, header) {
		t.Errorf("salvaged header = %q, want %q", gotHeader, header)
	}
	if len(gotRecords) != 2 {
		t.Fatalf("salvaged %d records, want 2", len(gotRecords))
	}
}

func TestEnvelopeTrailingGarbage(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	data = append(data, []byte("extra\n")...)
	gotHeader, gotRecords, err := Decode(testMagic, testKind, data)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	// Everything before the garbage still verified.
	if !bytes.Equal(gotHeader, header) || len(gotRecords) != len(records) {
		t.Errorf("salvage lost data: header %q, %d records", gotHeader, len(gotRecords))
	}
}

// withEndPayload re-frames data's end record around payload, with a line
// checksum that verifies, so only the trailer's own form is under test.
func withEndPayload(data []byte, payload string) []byte {
	end := bytes.LastIndex(data[:len(data)-1], []byte("\n")) + 1
	out := append([]byte(nil), data[:end]...)
	return append(out, "end "+sum([]byte(payload))+" "+payload+"\n"...)
}

// The end record must be exactly the form Encode writes: a count with a
// sign, a leading zero or trailing bytes is corrupt even when the line
// checksum covers it.
func TestEnvelopeEndRecordIsCanonical(t *testing.T) {
	header, records := testRecords()
	data := Encode(testMagic, testKind, header, records)
	stream := sum(data[:bytes.LastIndex(data[:len(data)-1], []byte("\n"))+1])
	for _, tc := range []struct {
		name, payload string
		ok            bool
	}{
		{"canonical", "3 " + stream, true},
		{"plus sign", "+3 " + stream, false},
		{"leading zero", "03 " + stream, false},
		{"trailing junk", "3 " + stream + " trailing junk", false},
		{"wrong count", "2 " + stream, false},
		{"wrong stream", "3 " + sum(nil), false},
	} {
		mut := withEndPayload(data, tc.payload)
		_, gotRecords, err := Decode(testMagic, testKind, mut)
		if tc.ok {
			if err != nil || !bytes.Equal(mut, data) {
				t.Errorf("%s: err = %v, re-framed equal = %v", tc.name, err, bytes.Equal(mut, data))
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		if len(gotRecords) != len(records) {
			t.Errorf("%s: salvaged %d records, want %d", tc.name, len(gotRecords), len(records))
		}
	}
}

// FuzzEnvelopeDecode feeds arbitrary bytes to Decode: it must never
// panic, every error must wrap ErrCorrupt, and a clean decode must
// re-encode to the input up to the one final newline the decoder
// tolerates missing or doubled. (Every returned record is verified by
// its own checksum, so the salvage is a prefix by construction; the
// durable fuzz target checks the prefix through the checkpoint mapping.)
func FuzzEnvelopeDecode(f *testing.F) {
	header, records := testRecords()
	for _, recs := range [][][]byte{nil, records[:1], records} {
		data := Encode(testMagic, testKind, header, recs)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		gotHeader, gotRecords, err := Decode(testMagic, testKind, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if gotHeader == nil && len(gotRecords) > 0 {
				t.Fatalf("salvaged %d records without a header", len(gotRecords))
			}
			return
		}
		enc := Encode(testMagic, testKind, gotHeader, gotRecords)
		if !bytes.Equal(enc, data) && !bytes.Equal(enc[:len(enc)-1], data) &&
			!bytes.Equal(append(enc[:len(enc):len(enc)], '\n'), data) {
			t.Fatalf("clean decode re-encodes differently\nin:  %q\nout: %q", data, enc)
		}
	})
}

// sink keeps benchmarked results live.
var sink []byte

// BenchmarkEnvelope times Encode and Decode of a checkpoint-sized
// envelope: a 200-byte header and 16 records of about 200 bytes each.
func BenchmarkEnvelope(b *testing.B) {
	header := bytes.Repeat([]byte("h"), 200)
	records := make([][]byte, 16)
	for i := range records {
		records[i] = bytes.Repeat([]byte{byte('a' + i)}, 200)
	}
	data := Encode(testMagic, testKind, header, records)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = Encode(testMagic, testKind, header, records)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, _, err := Decode(testMagic, testKind, data)
			if err != nil {
				b.Fatal(err)
			}
			sink = h
		}
	})
}
