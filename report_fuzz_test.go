package waitfree_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"waitfree"
)

// FuzzDecodeReport feeds DecodeReport, which reads cached and on-disk
// report bytes, arbitrary input seeded with one canonical report of each
// kind (the parity requests, which include a refuted consensus check). It
// must never panic, every refusal must wrap ErrBadReport, and an accepted
// report must survive marshal → decode → marshal byte for byte.
func FuzzDecodeReport(f *testing.F) {
	for _, tc := range parityRequests {
		rep, err := waitfree.Check(context.Background(), tc.mk())
		if err != nil {
			f.Fatalf("%s: %v", tc.name, err)
		}
		rep.Canonicalize()
		data, err := json.Marshal(rep)
		if err != nil {
			f.Fatalf("%s: %v", tc.name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := waitfree.DecodeReport(data)
		if err != nil {
			if !errors.Is(err, waitfree.ErrBadReport) {
				t.Fatalf("refusal does not wrap ErrBadReport: %v", err)
			}
			return
		}
		first, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report does not marshal: %v", err)
		}
		again, err := waitfree.DecodeReport(first)
		if err != nil {
			t.Fatalf("re-marshaled report refused: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip is not byte-stable:\n%s\n%s", first, second)
		}
	})
}
