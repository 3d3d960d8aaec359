package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file implements the key encoder behind the explorer's configuration
// keys (the interned layout that uses it lives in intern.go, the table that
// indexes it in memo.go).
//
// Key rendering used to be fmt.Sprintf("%#v|%#v", ...), which spends most
// of its time in fmt's reflection-based formatter. The encoder below
// renders each component — one object state, one process control state —
// into a segment, with hand-rolled fast paths for the framework's own
// value types (ints, strings, Response, Invocation, Action) and a single
// reflection walk for user-defined machine/object states, interning their
// reflect.Types into small ids. Each distinct component is encoded once
// per tree, when the intern tables first see it; configurations are keyed
// on the resulting component ids, and the segment concatenation is what
// those id keys stand for.
//
// Segments only need to be injective and stable within one encoder:
// type-id interning is per-encoder, so encounter order cannot differ
// between two encodings of equal values. The memo table still lives for a
// single execution tree — memo hits skip the per-leaf checks, and validity
// depends on the tree's proposal vector — but the per-tree restriction no
// longer caps deduplication across symmetric trees: the symmetry layer
// (symmetry.go) goes further than sharing a table across the orbit of a
// proposal vector's permutations, skipping the member trees outright and
// replaying the representative's outcome, once the implementation's
// tabulation (canon.go) certifies that the processes are interchangeable.

// Key tags. Every encoded value starts with a tag byte so that values of
// different shapes can never collide byte-wise (e.g. int 1 vs true vs "1").
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagInt
	tagString
	tagResponse
	tagInvocation
	tagAction
	tagProc
	tagSep
	tagReflect
	tagFloat
	tagFmt
	tagMap
)

// keyEncoder renders configuration components into compact deterministic
// byte segments. Not safe for concurrent use; each explorer owns one. The
// zero value is ready to use, so an explorer that never encodes pays
// nothing for it.
type keyEncoder struct {
	typeIDs map[reflect.Type]uint64
}

// appendProc encodes one process's control state.
func (e *keyEncoder) appendProc(b []byte, ps *procState) []byte {
	b = append(b, tagProc)
	b = binary.AppendVarint(b, int64(ps.OpIdx))
	if ps.Done {
		b = append(b, tagTrue)
	} else {
		b = append(b, tagFalse)
	}
	// Crash/step flags are configuration state under fault exploration:
	// leaf checks depend on which processes survived, so configurations
	// differing only in them must never be conflated.
	if ps.Crashed {
		b = append(b, tagTrue)
	} else {
		b = append(b, tagFalse)
	}
	if ps.Stepped {
		b = append(b, tagTrue)
	} else {
		b = append(b, tagFalse)
	}
	// The recovery count is encoded unconditionally: it is constantly 0
	// outside crash-recovery mode (one varint byte, no fragmentation), and
	// under crash-recovery it keeps the budget predicates config-derivable
	// and makes recovery edges cycle-free by construction.
	b = binary.AppendVarint(b, int64(ps.Recoveries))
	b = e.appendAny(b, ps.Mem)
	b = e.appendAny(b, ps.Mst)
	b = e.appendAction(b, ps.Pending)
	return appendResponse(b, ps.Resp)
}

func appendResponse(b []byte, r types.Response) []byte {
	b = append(b, tagResponse)
	b = binary.AppendUvarint(b, uint64(len(r.Label)))
	b = append(b, r.Label...)
	return binary.AppendVarint(b, int64(r.Val))
}

func appendInvocation(b []byte, inv types.Invocation) []byte {
	b = append(b, tagInvocation)
	b = binary.AppendUvarint(b, uint64(len(inv.Op)))
	b = append(b, inv.Op...)
	b = binary.AppendVarint(b, int64(inv.A))
	return binary.AppendVarint(b, int64(inv.B))
}

func (e *keyEncoder) appendAction(b []byte, a program.Action) []byte {
	b = append(b, tagAction)
	b = binary.AppendVarint(b, int64(a.Kind))
	b = binary.AppendVarint(b, int64(a.Obj))
	b = appendInvocation(b, a.Inv)
	b = appendResponse(b, a.Resp)
	return e.appendAny(b, a.Mem)
}

// appendAny encodes one object state, machine state, or memory value. The
// type switch covers the values the framework itself produces; everything
// else takes the reflection path. Note that the fast paths match exact
// types only (a named `type foo int` falls through to reflection and gets
// its own type id), so distinct types never share an encoding.
func (e *keyEncoder) appendAny(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil)
	case bool:
		if x {
			return append(b, tagTrue)
		}
		return append(b, tagFalse)
	case int:
		b = append(b, tagInt)
		return binary.AppendVarint(b, int64(x))
	case string:
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...)
	case types.Response:
		return appendResponse(b, x)
	case types.Invocation:
		return appendInvocation(b, x)
	default:
		return e.appendReflect(b, reflect.ValueOf(v))
	}
}

// appendReflect encodes a value of a type without a fast path: an interned
// type id followed by the value's fields, recursively.
func (e *keyEncoder) appendReflect(b []byte, rv reflect.Value) []byte {
	b = append(b, tagReflect)
	t := rv.Type()
	id, ok := e.typeIDs[t]
	if !ok {
		if e.typeIDs == nil {
			e.typeIDs = make(map[reflect.Type]uint64)
		}
		id = uint64(len(e.typeIDs) + 1)
		e.typeIDs[t] = id
	}
	b = binary.AppendUvarint(b, id)
	return e.appendValue(b, rv)
}

func (e *keyEncoder) appendValue(b []byte, rv reflect.Value) []byte {
	switch rv.Kind() {
	case reflect.Bool:
		if rv.Bool() {
			return append(b, tagTrue)
		}
		return append(b, tagFalse)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(b, rv.Uint())
	case reflect.Float32, reflect.Float64:
		b = append(b, tagFloat)
		return binary.AppendUvarint(b, math.Float64bits(rv.Float()))
	case reflect.String:
		s := rv.String()
		b = append(b, tagString)
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	case reflect.Struct:
		// Fields are tagged with their index implicitly by position; the
		// struct's type id already pins the field count and types.
		for i := 0; i < rv.NumField(); i++ {
			b = e.appendValue(b, rv.Field(i))
		}
		return b
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			b = e.appendValue(b, rv.Index(i))
		}
		return b
	case reflect.Interface:
		if rv.IsNil() {
			return append(b, tagNil)
		}
		return e.appendReflect(b, rv.Elem())
	case reflect.Map:
		// Map iteration order is randomized, so entries are encoded
		// individually and sorted by their encoded bytes — distinct keys
		// have distinct self-delimiting encodings, so this is equivalent to
		// sorting by key and the rendering is deterministic. The historical
		// tagFmt fallback left determinism to fmt's key sorting, which does
		// not cover every key type and ties the key format to fmt internals.
		if rv.IsNil() {
			return append(b, tagNil)
		}
		b = append(b, tagMap)
		b = binary.AppendUvarint(b, uint64(rv.Len()))
		entries := make([][]byte, 0, rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			eb := e.appendReflect(nil, iter.Key())
			eb = e.appendReflect(eb, iter.Value())
			entries = append(entries, eb)
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i], entries[j]) < 0 })
		for _, eb := range entries {
			b = append(b, eb...)
		}
		return b
	default:
		// States are documented as pointer-free comparable values, so this
		// branch is unreachable for well-formed types. Keep correctness for
		// strays (pointers, chans) by falling back to the fmt rendering the
		// explorer used historically. fmt replaces a reflect.Value operand
		// by the value it holds, so this works for unexported fields too.
		b = append(b, tagFmt)
		return fmt.Appendf(b, "%#v", rv)
	}
}
