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
