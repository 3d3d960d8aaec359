// Package types implements the concurrent data-type framework of Bazzi,
// Neiger, and Peterson, "On the Use of Registers in Achieving Wait-Free
// Consensus" (PODC 1994), Section 2.1.
//
// A type is a 5-tuple T = <n, Q, I, R, delta>: n ports, a state set Q, a set
// of access invocations I, a set of access responses R, and a transition
// function delta. A type may be deterministic (delta maps each
// state/port/invocation to exactly one state/response pair) or
// nondeterministic (it maps to a nonempty set of pairs), and oblivious (the
// transition does not depend on the port) or port-aware.
//
// States are represented as comparable Go values and are treated as
// immutable: a transition never mutates a state in place, it returns a new
// one. This makes configurations of many objects cheap to copy and safe to
// use as map keys in the execution-tree explorer.
package types

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// State is an object state. Concrete states must be comparable values
// (ints, strings, small structs or arrays of such) and must be treated as
// immutable by all code.
type State any

// Invocation is an access invocation (an element of I). Op names the
// operation; A and B carry up to two integer arguments (for example
// write(v) uses A=v and cas(old,new) uses A=old, B=new). Invocation is a
// comparable value.
type Invocation struct {
	Op string `json:"op"`
	A  int    `json:"a,omitempty"`
	B  int    `json:"b,omitempty"`
}

// Inv builds an Invocation from an operation name and up to two integer
// arguments. Extra arguments beyond two are rejected at construction time
// so call sites fail loudly during development rather than silently
// truncating.
func Inv(op string, args ...int) Invocation {
	inv := Invocation{Op: op}
	switch len(args) {
	case 0:
	case 1:
		inv.A = args[0]
	case 2:
		inv.A = args[0]
		inv.B = args[1]
	default:
		panic("types.Inv: at most two invocation arguments are supported")
	}
	return inv
}

// String renders the invocation as op, op(a), or op(a,b). Argument count is
// inferred per operation name by convention: zero-argument operations leave
// A and B at zero, which prints compactly.
func (i Invocation) String() string {
	if i.A == 0 && i.B == 0 {
		return i.Op
	}
	if i.B == 0 {
		return i.Op + "(" + strconv.Itoa(i.A) + ")"
	}
	return i.Op + "(" + strconv.Itoa(i.A) + "," + strconv.Itoa(i.B) + ")"
}

// Response is an access response (an element of R). Label distinguishes
// response classes ("ok", "val", "empty", ...); Val carries an integer
// payload for value-bearing responses. Response is a comparable value.
type Response struct {
	Label string `json:"label"`
	Val   int    `json:"val,omitempty"`
}

// Common response labels used throughout the type zoo.
const (
	LabelOK    = "ok"
	LabelVal   = "val"
	LabelEmpty = "empty"
	LabelFull  = "full"
	LabelWin   = "win"
	LabelLose  = "lose"
	LabelErr   = "err"
)

// OK is the information-free acknowledgement response.
var OK = Response{Label: LabelOK}

// ValOf builds a value-bearing response.
func ValOf(v int) Response { return Response{Label: LabelVal, Val: v} }

// String renders the response as label or label(v).
func (r Response) String() string {
	if r.Label == LabelVal {
		return "val(" + strconv.Itoa(r.Val) + ")"
	}
	if r.Val == 0 {
		return r.Label
	}
	return r.Label + "(" + strconv.Itoa(r.Val) + ")"
}

// Transition is one allowed outcome of an invocation: the object's next
// state and the response returned over the invoking port.
type Transition struct {
	Next State
	Resp Response
}

// Spec is the machine-readable form of a type T = <n, Q, I, R, delta>.
//
// Step implements delta: it returns the set of allowed transitions for the
// given state, port, and invocation. An empty result means the invocation
// is illegal at that state/port (not part of the type's sequential
// specification); the framework reports such applications as errors rather
// than inventing behavior.
//
// Alphabet lists a finite, representative set of invocations used by
// state-space analyses (reachability, triviality, witness search). For
// types whose invocation set is infinite, Alphabet is a finite restriction
// and analyses are sound with respect to it.
type Spec struct {
	Name          string
	Ports         int
	Oblivious     bool
	Deterministic bool
	Alphabet      []Invocation
	Step          func(q State, port int, inv Invocation) []Transition
}

// Errors reported by Spec application helpers.
var (
	// ErrIllegal reports an invocation with no allowed transition.
	ErrIllegal = errors.New("types: invocation illegal in this state/port")
	// ErrNondeterministic reports a DetApply on a branching transition.
	ErrNondeterministic = errors.New("types: transition is nondeterministic")
	// ErrBadPort reports a port number outside 1..Ports.
	ErrBadPort = errors.New("types: port out of range")
)

// Apply returns the allowed transitions for inv on the given port, checking
// port bounds and legality.
func (s *Spec) Apply(q State, port int, inv Invocation) ([]Transition, error) {
	if port < 1 || port > s.Ports {
		return nil, fmt.Errorf("%w: port %d of %q (have %d)", ErrBadPort, port, s.Name, s.Ports)
	}
	ts := s.Step(q, port, inv)
	if len(ts) == 0 {
		return nil, fmt.Errorf("%w: %v in state %v on port %d of %q", ErrIllegal, inv, q, port, s.Name)
	}
	return ts, nil
}

// DetApply applies a transition that must be deterministic, returning the
// unique next state and response.
func (s *Spec) DetApply(q State, port int, inv Invocation) (State, Response, error) {
	ts, err := s.Apply(q, port, inv)
	if err != nil {
		return nil, Response{}, err
	}
	if len(ts) != 1 {
		return nil, Response{}, fmt.Errorf("%w: %v in state %v of %q has %d outcomes",
			ErrNondeterministic, inv, q, s.Name, len(ts))
	}
	return ts[0].Next, ts[0].Resp, nil
}

// StateKey renders a state to a stable string for diagnostics and for use
// in composite map keys. States are comparable, so this is only needed
// where heterogeneous states meet (for example, sorting).
func StateKey(q State) string { return fmt.Sprintf("%v", q) }

// FormatStates renders a state set deterministically for test output.
func FormatStates(states []State) string {
	keys := make([]string, 0, len(states))
	for _, q := range states {
		keys = append(keys, StateKey(q))
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
