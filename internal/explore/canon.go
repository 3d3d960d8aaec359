package explore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file lifts the explorer's configuration canonicalization (key.go)
// from single configurations to whole implementations: a canonical byte
// encoding of everything about an Implementation that can influence a
// verification report. Machines and Spec.Step are opaque Go functions, so
// the encoding is BEHAVIORAL, not structural — each object type is
// tabulated as its transition table over the states reachable from its
// initial state, and each machine is tabulated as a deterministic
// transducer over a response universe derived from those tables. Two
// implementations with byte-equal canonical encodings are observationally
// equivalent to the explorer (same trees, same merged reports), which is
// what makes the encoding safe to use as a result-cache key
// (internal/rescache).
//
// The encoding is only defined for implementations whose relevant state
// spaces are finite and small; anything that exceeds the tabulation
// budgets — or whose states are not comparable — reports ErrUncanonical,
// and callers fall back to running the check uncached.

// ErrUncanonical is the sentinel wrapped when an implementation has no
// bounded canonical encoding: a tabulation budget was exceeded, a machine
// or spec state is not comparable, or the alphabet/response fixpoint did
// not converge. It never indicates a malformed implementation — merely one
// the content-addressed cache cannot serve.
var ErrUncanonical = errors.New("explore: implementation has no bounded canonical encoding")

const (
	// canonStates bounds the states tabulated per object and per machine
	// (the symmetry certificate of a large run raises it; see planOrbits).
	canonStates = 4096
	// canonFixpointRounds bounds the invocation/response-universe
	// iteration: object tables are tabulated over the invocations the
	// machines actually issue, discovered incrementally (an invocation
	// guarded by a branch on a response value only surfaces once that
	// response enters the universe), so each round can add one level of
	// branch depth. The bound tracks the longest per-process program the
	// repo builds (the eliminated register-free protocols).
	canonFixpointRounds = 64
)

// Cell markers for machine transducer tables. They share no values with
// the key.go tags, but collisions would be harmless: markers are only
// compared against other markers at the same structural position.
const (
	canonCellPanic  byte = 0xF0 // Machine.Next panicked for this (state, response)
	canonCellAct    byte = 0xF1 // cell holds an encoded Action
	canonStartState byte = 0xF2 // start entry resolved to a state id
	canonStartPanic byte = 0xF3 // Machine.Start panicked for this invocation
)

// CanonicalSpec renders the behavior of spec from init into a canonical
// byte encoding: the structural header (name, ports, flags, alphabet)
// followed by the transition table over the reachable closure of init.
// Byte-equal encodings are behaviorally interchangeable objects. Types
// whose reachable fragment exceeds the tabulation budget report
// ErrUncanonical.
func CanonicalSpec(spec *types.Spec, init types.State) (out []byte, err error) {
	defer canonRecover(&err)
	respSet := map[types.Response]bool{}
	table, _, err := canonSpecTable(spec, init, spec.Alphabet, respSet, canonStates, false)
	if err != nil {
		return nil, err
	}
	b := appendSpecHeader(nil, spec, spec.Alphabet)
	return append(b, table...), nil
}

// CanonicalImplementation renders im into a canonical byte encoding of its
// verdict-relevant content. starts is the set of target invocations the
// machines may be started with (for consensus-style checks, the propose
// invocations over the proposal-value range); it is part of the encoding.
//
// Process-permutation canonicalization: when the tabulation certifies
// process symmetry (symmetryErr: declared-oblivious, fully ported objects
// whose tables are port-independent, and byte-identical machine tables),
// the per-process port assignments are omitted — so implementations that
// differ only by a renaming of interchangeable processes (or by
// structurally distinct but behaviorally identical machine values) share
// one encoding. Otherwise machines and ports are encoded positionally,
// which is always sound.
func CanonicalImplementation(im *program.Implementation, starts []types.Invocation) (out []byte, err error) {
	defer canonRecover(&err)
	starts = dedupInvocations(starts)
	tab, err := tabulate(im, starts, canonStates, false)
	if err != nil {
		return nil, err
	}

	b := append(make([]byte, 0, 2048), "wfimpl2"...)
	b = binary.AppendVarint(b, int64(im.Procs))
	b = appendCanonString(b, im.Name)
	if im.Target != nil {
		b = append(b, 1)
		b = appendSpecHeader(b, im.Target, im.Target.Alphabet)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(starts)))
	for _, inv := range starts {
		b = appendInvocation(b, inv)
	}
	b = binary.AppendUvarint(b, uint64(len(im.Objects)))
	for i := range im.Objects {
		obj := &im.Objects[i]
		b = appendCanonString(b, obj.Name)
		b = appendSpecHeader(b, obj.Spec, tab.objInvs[i])
		b = appendCanonBytes(b, tab.objTabs[i])
	}

	// Symmetric-canonical mode drops the port assignments so that process
	// permutations of one implementation collapse to one encoding; the
	// certificate that makes this sound is the one symmetry reduction uses.
	if tab.symmetryErr(im) == nil {
		b = append(b, 'S')
		b = appendCanonBytes(b, tab.machTabs[0])
		return b, nil
	}
	b = append(b, 'P')
	for p := range tab.machTabs {
		b = appendCanonBytes(b, tab.machTabs[p])
		for i := range im.Objects {
			b = binary.AppendVarint(b, int64(im.Objects[i].Port(p)))
		}
	}
	return b, nil
}

// tabulation is the behavioral tabulation of an implementation: every
// object's transition table over the invocations the machines issue, and
// every machine's transducer table over the responses those objects give.
type tabulation struct {
	objInvs  [][]types.Invocation // per object: the issued invocations, in discovery order
	objTabs  [][]byte
	portFree bool // every object table is port-independent as tabulated
	machTabs [][]byte
}

// tabulate validates im and tabulates it from starts (deduplicated by the
// caller). Object tables are computed over the invocations the machines
// issue, discovered by a fixpoint: the declared Alphabet is deliberately
// NOT seeded in, because the explorer only ever drives a spec through
// machine-issued invocations, so behavior on the rest of the alphabet
// cannot influence a verdict — and the machine tabulation enumerates every
// (control state, response) pair, an over-approximation of what real
// executions reach, so the issued set covers everything the explorer can
// trigger. Keying on the issued closure both sharpens the
// canonicalization (alphabet-only spec differences collapse) and keeps
// the warm cache path cheap. Implementations that exceed a budget, panic,
// or hold non-comparable states report ErrUncanonical.
//
// limit bounds the states tabulated per object and per machine.
//
// With certify set, tabulate serves the symmetry certificate alone: it
// keeps no object table bytes, and it returns early, with partial tables,
// once a round's tables already fail symmetryErr. The invocation sets and
// response universes only grow from round to round, so a port-dependent
// object row or a difference between machine tables found in one round
// persists at the fixpoint.
func tabulate(im *program.Implementation, starts []types.Invocation, limit int, certify bool) (tab *tabulation, err error) {
	defer canonRecover(&err)
	if err := im.Validate(); err != nil {
		return nil, err
	}
	tab = &tabulation{
		objInvs:  make([][]types.Invocation, len(im.Objects)),
		objTabs:  make([][]byte, len(im.Objects)),
		machTabs: make([][]byte, len(im.Machines)),
	}
	enc := &keyEncoder{}
	respsByObj := make([][]types.Response, len(im.Objects))
	for round := 0; ; round++ {
		if round >= canonFixpointRounds {
			return nil, fmt.Errorf("%w: %s: invocation/response universe did not converge in %d rounds",
				ErrUncanonical, im.Name, canonFixpointRounds)
		}
		tab.portFree = true
		for i := range im.Objects {
			obj := &im.Objects[i]
			respSet := map[types.Response]bool{}
			table, portFree, err := canonSpecTable(obj.Spec, obj.Init, tab.objInvs[i], respSet, limit, certify)
			if err != nil {
				return nil, fmt.Errorf("object %d (%s): %w", i, obj.Name, err)
			}
			tab.objTabs[i] = table
			tab.portFree = tab.portFree && portFree
			respsByObj[i] = sortedResponses(respSet)
		}
		grew := false
		for p, m := range im.Machines {
			table, issued, err := canonMachineTable(enc, m, starts, respsByObj, limit)
			if err != nil {
				return nil, fmt.Errorf("machine %d: %w", p, err)
			}
			if p > 0 && bytes.Equal(table, tab.machTabs[0]) {
				table = tab.machTabs[0] // one copy of a symmetric machine table
			}
			tab.machTabs[p] = table
			for _, oi := range issued {
				if oi.obj < 0 || oi.obj >= len(tab.objInvs) {
					continue // stray object index; the explorer would reject it
				}
				if !containsInvocation(tab.objInvs[oi.obj], oi.inv) {
					tab.objInvs[oi.obj] = append(tab.objInvs[oi.obj], oi.inv)
					grew = true
				}
			}
		}
		if !grew || certify && tab.symmetryErr(im) != nil {
			return tab, nil
		}
	}
}

// canonRecover converts panics from foreign code (Spec.Step, Machine
// implementations, non-comparable states used as map keys) into
// ErrUncanonical: the implementation is not encodable, so the cache
// bypasses it, but the check itself still runs.
func canonRecover(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: encoding panicked: %v", ErrUncanonical, r)
	}
}

// canonSpecTable tabulates spec behaviorally: a breadth-first walk of the
// states reachable from init, recording for every (state, port,
// invocation) the allowed transitions as (response, next-state-id) pairs.
// State ids are assigned in discovery order, so the table bytes are a
// canonical form independent of the Go representation of states. Every
// response seen is added to respSet (the machine-transducer universe).
// oblivious reports whether every tabulated row was byte-identical across
// ports — the behavioral check behind the symmetric-canonical mode. At
// most limit states are tabulated; with certify set, no table is kept.
func canonSpecTable(spec *types.Spec, init types.State, invs []types.Invocation, respSet map[types.Response]bool, limit int, certify bool) (table []byte, oblivious bool, err error) {
	ids := map[types.State]uint64{init: 1}
	order := []types.State{init}
	id := func(q types.State) uint64 {
		if n, ok := ids[q]; ok {
			return n
		}
		n := uint64(len(order) + 1)
		ids[q] = n
		order = append(order, q)
		return n
	}
	b := make([]byte, 0, 256)
	oblivious = true
	var firstRow, row []byte
	for i := 0; i < len(order); i++ {
		q := order[i]
		for port := 1; port <= spec.Ports; port++ {
			row = row[:0]
			for _, inv := range invs {
				ts := spec.Step(q, port, inv)
				row = binary.AppendUvarint(row, uint64(len(ts)))
				for _, t := range ts {
					respSet[t.Resp] = true
					row = appendResponse(row, t.Resp)
					row = binary.AppendUvarint(row, id(t.Next))
				}
			}
			if port == 1 {
				firstRow = append(firstRow[:0], row...)
			} else if !bytes.Equal(firstRow, row) {
				oblivious = false
			}
			if !certify {
				b = append(b, row...)
			}
		}
		if len(order) > limit {
			return nil, false, fmt.Errorf("%w: type %q exceeds %d reachable states",
				ErrUncanonical, spec.Name, limit)
		}
	}
	return b, oblivious, nil
}

// objInv is one invocation a machine issued on one object during
// tabulation.
type objInv struct {
	obj int
	inv types.Invocation
}

// canonMachineTable tabulates m as a deterministic transducer: start
// states for every start invocation (with nil persistent memory — the
// cached pipelines run one target operation per process), then a block
// per discovered (control state, response source): the machine's action
// on each response that source can deliver. A source is either the zero
// first-response after Start, or an object the machine just invoked —
// whose sorted tabulated response set is used, plus the zero response so
// that invocation chains whose sequencing ignores the response value stay
// discoverable before the object tables fill in. Restricting each state
// to the responses it can actually receive (instead of the global
// response universe) keeps the tabulation an over-approximation of the
// explorer's executions while shrinking it sharply. Invoke actions
// enqueue their successor state under the invoked object's source;
// Return actions are terminal (the explorer never drives a machine past
// its return), so their successors are not explored. Panics in foreign
// machine code are recorded as panic cells, deterministically. At most
// limit control states are tabulated.
func canonMachineTable(enc *keyEncoder, m program.Machine, starts []types.Invocation, respsByObj [][]types.Response, limit int) (table []byte, issued []objInv, err error) {
	ids := map[any]uint64{}
	var order []any
	id := func(s any) uint64 {
		if n, ok := ids[s]; ok {
			return n
		}
		n := uint64(len(order) + 1)
		ids[s] = n
		order = append(order, s)
		return n
	}
	type block struct {
		state uint64
		src   int // 0 = zero response after Start; o+1 = responses of object o
	}
	words := (len(respsByObj) + 1 + 63) / 64
	var seen [][]uint64 // seen[stateID-1]: bitmask over sources already enqueued
	var queue []block
	enqueue := func(s any, src int) {
		n := id(s)
		for uint64(len(seen)) < n {
			seen = append(seen, make([]uint64, words))
		}
		if w := seen[n-1]; w[src/64]&(1<<(src%64)) == 0 {
			w[src/64] |= 1 << (src % 64)
			queue = append(queue, block{n, src})
		}
	}
	b := make([]byte, 0, 512)
	b = binary.AppendUvarint(b, uint64(len(starts)))
	for _, inv := range starts {
		b = appendInvocation(b, inv)
		if s, ok := safeStart(m, inv); ok {
			b = append(b, canonStartState)
			b = binary.AppendUvarint(b, id(s))
			enqueue(s, 0)
		} else {
			b = append(b, canonStartPanic)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		blk := queue[qi]
		s := order[blk.state-1]
		b = binary.AppendUvarint(b, blk.state)
		b = binary.AppendUvarint(b, uint64(blk.src))
		step := func(r types.Response) {
			act, next, ok := safeNext(m, s, r)
			if !ok {
				b = append(b, canonCellPanic)
				return
			}
			b = append(b, canonCellAct)
			b = enc.appendAction(b, act)
			if act.Kind == program.KindInvoke {
				issued = append(issued, objInv{obj: act.Obj, inv: act.Inv})
				b = binary.AppendUvarint(b, id(next))
				if act.Obj >= 0 && act.Obj < len(respsByObj) {
					enqueue(next, act.Obj+1)
				}
			}
		}
		step(types.Response{})
		if blk.src > 0 {
			for _, r := range respsByObj[blk.src-1] {
				if r == (types.Response{}) {
					continue // already tabulated above
				}
				step(r)
			}
		}
		if len(order) > limit {
			return nil, nil, fmt.Errorf("%w: machine exceeds %d control states",
				ErrUncanonical, limit)
		}
	}
	return b, issued, nil
}

// safeStart calls m.Start, converting a panic into ok=false. The universe
// of start invocations over-approximates what the machine expects, so
// foreign machines are allowed to reject entries by panicking.
func safeStart(m program.Machine, inv types.Invocation) (s any, ok bool) {
	defer func() {
		if recover() != nil {
			s, ok = nil, false
		}
	}()
	return m.Start(inv, nil), true
}

// safeNext calls m.Next, converting a panic into ok=false (the response
// universe over-approximates what the machine can actually receive).
func safeNext(m program.Machine, s any, r types.Response) (act program.Action, next any, ok bool) {
	defer func() {
		if recover() != nil {
			act, next, ok = program.Action{}, nil, false
		}
	}()
	act, next = m.Next(s, r)
	return act, next, true
}

func appendSpecHeader(b []byte, spec *types.Spec, invs []types.Invocation) []byte {
	b = appendCanonString(b, spec.Name)
	b = binary.AppendVarint(b, int64(spec.Ports))
	b = appendCanonBool(b, spec.Oblivious)
	b = appendCanonBool(b, spec.Deterministic)
	b = binary.AppendUvarint(b, uint64(len(invs)))
	for _, inv := range invs {
		b = appendInvocation(b, inv)
	}
	return b
}

func appendCanonString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendCanonBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendCanonBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func sortedResponses(set map[types.Response]bool) []types.Response {
	out := make([]types.Response, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return out[i].Val < out[j].Val
	})
	return out
}

func dedupInvocations(invs []types.Invocation) []types.Invocation {
	seen := make(map[types.Invocation]bool, len(invs))
	out := make([]types.Invocation, 0, len(invs))
	for _, inv := range invs {
		if !seen[inv] {
			seen[inv] = true
			out = append(out, inv)
		}
	}
	return out
}

func containsInvocation(invs []types.Invocation, inv types.Invocation) bool {
	for _, have := range invs {
		if have == inv {
			return true
		}
	}
	return false
}
