package types

// This file defines the two types that drive the paper: the n-process
// binary consensus type T_{c,n} (Section 2.1) and the one-use bit T_{1u}
// (Section 3).

// Operation names used by the consensus and one-use bit types.
const (
	OpPropose = "propose"
)

// ConsensusUndecided is the initial (bottom) consensus state.
const ConsensusUndecided = -1

// Propose builds the propose(v) invocation for v in {0, 1}.
func Propose(v int) Invocation { return Invocation{Op: OpPropose, A: v} }

// Consensus returns the n-process binary consensus type T_{c,n} exactly as
// specified in Section 2.1: states {bottom, 0, 1}; invocations 0 and 1; the
// first invocation fixes the state and every invocation returns the fixed
// value (the consensus value of the object).
func Consensus(ports int) *Spec {
	return &Spec{
		Name:          "consensus",
		Ports:         ports,
		Oblivious:     true,
		Deterministic: true,
		Alphabet:      []Invocation{Propose(0), Propose(1)},
		Step: func(q State, _ int, inv Invocation) []Transition {
			cur, ok := q.(int)
			if !ok || inv.Op != OpPropose || (inv.A != 0 && inv.A != 1) {
				return nil
			}
			if cur == ConsensusUndecided {
				return []Transition{{Next: inv.A, Resp: ValOf(inv.A)}}
			}
			return []Transition{{Next: cur, Resp: ValOf(cur)}}
		},
	}
}

// MultiConsensus returns the k-valued n-process consensus type: like the
// paper's binary T_{c,n} but with proposals 0..k-1. It is the target type
// of the multi-valued-from-binary construction (package multivalue) and of
// the generalized checker explore.ConsensusKContext.
func MultiConsensus(ports, k int) *Spec {
	alphabet := make([]Invocation, k)
	for v := range alphabet {
		alphabet[v] = Propose(v)
	}
	return &Spec{
		Name:          "multi-consensus",
		Ports:         ports,
		Oblivious:     true,
		Deterministic: true,
		Alphabet:      alphabet,
		Step: func(q State, _ int, inv Invocation) []Transition {
			cur, ok := q.(int)
			if !ok || inv.Op != OpPropose || inv.A < 0 || inv.A >= k {
				return nil
			}
			if cur == ConsensusUndecided {
				return []Transition{{Next: inv.A, Resp: ValOf(inv.A)}}
			}
			return []Transition{{Next: cur, Resp: ValOf(cur)}}
		},
	}
}

// One-use bit states (Section 3).
const (
	OneUseUnset = "unset"
	OneUseSet   = "set"
	OneUseDead  = "dead"
)

// OneUseBit returns the one-use bit type T_{1u} of Section 3, verbatim:
//
//	delta(UNSET, read)  = {(DEAD, 0)}
//	delta(SET,   read)  = {(DEAD, 1)}
//	delta(DEAD,  read)  = {(DEAD, 0), (DEAD, 1)}
//	delta(UNSET, write) = {(SET,  ok)}
//	delta(SET,   write) = {(DEAD, ok)}
//	delta(DEAD,  write) = {(DEAD, ok)}
//
// The type is 2-port and oblivious; it is nondeterministic only on reads in
// the DEAD state, and as the paper notes that nondeterminism plays no role
// in any of its uses (a correct client never reads a DEAD bit).
func OneUseBit() *Spec {
	return &Spec{
		Name:          "one-use-bit",
		Ports:         2,
		Oblivious:     true,
		Deterministic: false,
		Alphabet:      []Invocation{Read, Write(1)},
		Step: func(q State, _ int, inv Invocation) []Transition {
			s, ok := q.(string)
			if !ok {
				return nil
			}
			switch inv.Op {
			case OpRead:
				switch s {
				case OneUseUnset:
					return []Transition{{Next: OneUseDead, Resp: ValOf(0)}}
				case OneUseSet:
					return []Transition{{Next: OneUseDead, Resp: ValOf(1)}}
				case OneUseDead:
					return []Transition{
						{Next: OneUseDead, Resp: ValOf(0)},
						{Next: OneUseDead, Resp: ValOf(1)},
					}
				}
			case OpWrite:
				switch s {
				case OneUseUnset:
					return []Transition{{Next: OneUseSet, Resp: OK}}
				case OneUseSet, OneUseDead:
					return []Transition{{Next: OneUseDead, Resp: OK}}
				}
			}
			return nil
		},
	}
}
