package types

import (
	"fmt"
	"strings"
)

// SeqEvent is one port-invocation-response triple of a sequential history
// (Section 2.1 of the paper).
type SeqEvent struct {
	Port int
	Inv  Invocation
	Resp Response
}

// String renders the event as p<port>:<inv>-><resp>.
func (e SeqEvent) String() string {
	return fmt.Sprintf("p%d:%v->%v", e.Port, e.Inv, e.Resp)
}

// SeqHistory is a sequential history of a type: an alternating sequence of
// states and port-invocation-response triples, starting from some initial
// state. Only the triples are stored; intermediate states are recomputed
// during validation.
type SeqHistory []SeqEvent

// String renders the history as a semicolon-separated event list.
func (h SeqHistory) String() string {
	parts := make([]string, len(h))
	for i, e := range h {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Validate checks that h is a legal sequential history of spec from init:
// every event's response must be produced by some allowed transition, and
// the state thread must be consistent. It returns the final state.
//
// For nondeterministic types an event is legal if at least one allowed
// transition matches its response; validation follows the matching branch.
// If several branches match with different next states, validation forks
// and succeeds if any branch admits the remainder of the history.
func (h SeqHistory) Validate(spec *Spec, init State) (State, error) {
	finals, err := h.validateFrom(spec, init, 0)
	if err != nil {
		return nil, err
	}
	return finals[0], nil
}

func (h SeqHistory) validateFrom(spec *Spec, q State, idx int) ([]State, error) {
	if idx == len(h) {
		return []State{q}, nil
	}
	e := h[idx]
	ts, err := spec.Apply(q, e.Port, e.Inv)
	if err != nil {
		return nil, fmt.Errorf("event %d (%v): %w", idx, e, err)
	}
	var finals []State
	var lastErr error
	for _, t := range ts {
		if t.Resp != e.Resp {
			continue
		}
		rest, err := h.validateFrom(spec, t.Next, idx+1)
		if err != nil {
			lastErr = err
			continue
		}
		finals = append(finals, rest...)
	}
	if len(finals) == 0 {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("event %d (%v): response %v not allowed in state %v", idx, e, e.Resp, q)
	}
	return finals, nil
}
