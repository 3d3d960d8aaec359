package server

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"waitfree"
)

// FuzzDecodeWire feeds arbitrary bodies to the submission decoder, the
// first code a network client reaches. It must never panic; a refusal must
// wrap ErrBadRequest or ErrUnknownProtocol (so the handler answers 400);
// and an accepted body must re-marshal to a body that decodes to an equal
// WireRequest, since the wire form is what the job store persists.
func FuzzDecodeWire(f *testing.F) {
	for _, seed := range []string{
		`{"api":"v1","kind":"consensus","protocol":"cas","procs":4,"explore":{"memoize":true,"symmetry":"auto"}}`,
		`{"api":"v1","kind":"consensus","protocol":"sticky","procs":3,"values":3,"explore":{"faults":{"max_crashes":1,"mode":"crash-recovery","max_recoveries":1}}}`,
		`{"api":"v1","kind":"bound","protocol":"casregister3","timeout_ms":500}`,
		`{"api":"v1","kind":"elimination","protocol":"noisysticky-r","max_k":2}`,
		`{"api":"v1","kind":"classification","explore":{"max_depth":8,"symmetry":"off"}}`,
		`{"api":"v1","kind":"synthesis","objects":"tas+bits","synthesis":{"depth":1,"symmetric":true}}`,
		`{"api":"v1","kind":"consensus","protocol":"cas","procs":1000000000}`,
		`{"api":"v1","kind":"consensus","protocol":"nope"}`,
		`{"api":"v2"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w, _, err := DecodeWire(body)
		if err != nil {
			if !errors.Is(err, waitfree.ErrBadRequest) && !errors.Is(err, waitfree.ErrUnknownProtocol) {
				t.Fatalf("refusal %v wraps neither ErrBadRequest nor ErrUnknownProtocol", err)
			}
			return
		}
		again, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		w2, _, err := DecodeWire(again)
		if err != nil {
			t.Fatalf("re-marshaled request %s refused: %v", again, err)
		}
		if !reflect.DeepEqual(w, w2) {
			t.Fatalf("re-marshaled request differs\nfirst:  %+v\nsecond: %+v", w, w2)
		}
	})
}
