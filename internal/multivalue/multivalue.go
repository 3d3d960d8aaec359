// Package multivalue implements k-valued n-process consensus from BINARY
// consensus objects plus registers — the classic bit-by-bit agreement
// construction. It closes a gap between the paper's binary consensus type
// T_{c,n} (Section 2.1) and the multi-valued consensus that Herlihy's
// universality theorem consumes: binary consensus loses no generality.
//
// The construction: every process announces its proposal in a register,
// then the processes agree on the decision one bit at a time (most
// significant first) using one binary consensus object per bit. At bit
// round j, a process whose own proposal is consistent with the agreed
// prefix proposes its own j-th bit; a process whose proposal has fallen
// off the prefix scans the announcement registers for some announced value
// consistent with the prefix — one always exists, because every agreed bit
// was proposed by some process holding a consistent announced value — and
// champions that value's j-th bit. After all rounds the prefix IS an
// announced value, which gives validity; agreement is inherited from the
// binary objects; wait-freedom is clear (at most B(n+1)+1 accesses).
package multivalue

import (
	"fmt"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// Bits returns the number of bit rounds needed for values 0..k-1.
func Bits(k int) int {
	b := 0
	for 1<<uint(b) < k {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// bitOf extracts bit j of v, counting j = 0 as the MOST significant of b
// bits.
func bitOf(v, j, b int) int {
	return (v >> uint(b-1-j)) & 1
}

// prefixMatches reports whether value v agrees with the agreed prefix of
// length plen (prefix holds bits packed MSB first, out of b total bits).
func prefixMatches(v, prefix, plen, b int) bool {
	if plen == 0 {
		return true
	}
	return (v >> uint(b-plen)) == prefix
}

// mvState is the machine state of one process.
//
// Phases: announce own value; per bit round: either propose directly (own
// value consistent) or scan announcements first; compose the decision.
type mvState struct {
	PC     int // 0 = announce; 1 = round entry; 2 = scanning; 3 = proposing
	V      int // own proposal
	Round  int // current bit round
	Prefix int // agreed bits so far (packed, MSB first)
	Scan   int // index of the scan-list entry being read
	Champ  int // value whose bit we champion this round
}

// Object layout: announce[0..procs-1], then bits[0..B-1].
func announceObj(p int) int         { return p }
func bitObj(procs, j int) int       { return procs + j }
func totalObjects(procs, b int) int { return procs + b }

// machine builds process p's program. scan lists the processes whose
// announcements p reads, in order, when its own proposal has fallen off
// the agreed prefix; Scan indexes it, and an exhausted scan leaves Scan at
// the last index.
func machine(p, procs, k int, scan []int) program.Machine {
	b := Bits(k)
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any {
			return mvState{PC: 0, V: inv.A}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s, ok := state.(mvState)
			if !ok {
				panic("multivalue: machine driven with foreign state")
			}
			for {
				switch s.PC {
				case 0:
					// Announce the proposal (+1 so that 0 means "empty").
					s.PC = 1
					return program.InvokeAction(announceObj(p), types.Write(s.V+1)), s
				case 1:
					// Round entry: all bits agreed?
					if s.Round == b {
						return program.ReturnAction(types.ValOf(s.Prefix), nil), s
					}
					if prefixMatches(s.V, s.Prefix, s.Round, b) {
						s.Champ = s.V
						s.PC = 3
						continue
					}
					s.Scan = 0
					s.PC = 2
					return program.InvokeAction(announceObj(scan[0]), types.Read), s
				case 2:
					// Scanning announcements for a prefix-consistent value.
					if resp.Val != 0 && prefixMatches(resp.Val-1, s.Prefix, s.Round, b) {
						s.Champ = resp.Val - 1
						s.PC = 3
						continue
					}
					if s.Scan == len(scan)-1 {
						// Unreachable by the invariant; champion own value
						// so the machine stays total.
						s.Champ = s.V
						s.PC = 3
						continue
					}
					s.Scan++
					return program.InvokeAction(announceObj(scan[s.Scan]), types.Read), s
				case 3:
					// Propose the champion's bit for this round.
					s.PC = 4
					return program.InvokeAction(bitObj(procs, s.Round),
						types.Propose(bitOf(s.Champ, s.Round, b))), s
				case 4:
					// Fold the agreed bit into the prefix.
					s.Prefix = s.Prefix<<1 | resp.Val
					s.Round++
					s.PC = 1
				default:
					panic(fmt.Sprintf("multivalue: invalid pc %d", s.PC))
				}
			}
		},
	}
}

// appendBits appends the b binary consensus objects bit0..bit{b-1}, one
// per bit round, to objects.
func appendBits(objects []program.ObjectDecl, procs, b int) []program.ObjectDecl {
	for j := 0; j < b; j++ {
		objects = append(objects, program.ObjectDecl{
			Name:   fmt.Sprintf("bit%d", j),
			Spec:   types.Consensus(procs),
			Init:   types.ConsensusUndecided,
			PortOf: program.AllPorts(procs),
		})
	}
	return objects
}

// FromBinary builds k-valued consensus for procs processes from B binary
// consensus objects and procs announcement registers (multi-reader,
// single-writer by discipline).
func FromBinary(procs, k int) *program.Implementation {
	b := Bits(k)
	objects := make([]program.ObjectDecl, 0, totalObjects(procs, b))
	for p := 0; p < procs; p++ {
		objects = append(objects, program.ObjectDecl{
			Name:   fmt.Sprintf("announce%d", p),
			Spec:   types.Register(procs, k+1),
			Init:   0,
			PortOf: program.AllPorts(procs),
		})
	}
	objects = appendBits(objects, procs, b)
	all := make([]int, procs)
	for p := range all {
		all[p] = p
	}
	machines := make([]program.Machine, procs)
	for p := range machines {
		machines[p] = machine(p, procs, k, all)
	}
	return &program.Implementation{
		Name:     fmt.Sprintf("multivalue-consensus(n=%d,k=%d)", procs, k),
		Target:   types.MultiConsensus(procs, k),
		Procs:    procs,
		Objects:  objects,
		Machines: machines,
	}
}

// FromBinarySRSW is the 2-process variant whose announcement registers are
// single-reader single-writer (each process reads only the other's
// announcement), making it a valid input for the Theorem 5 pipeline after
// core.CompileSRSWRegisters turns the k-valued registers into bits. Its
// scan phase reads only the OTHER process's announcement (the only other
// candidate).
func FromBinarySRSW(k int) *program.Implementation {
	const procs = 2
	objects := []program.ObjectDecl{
		// announce0 written by process 0, read by process 1.
		{Name: "announce0", Spec: types.SRSWRegister(k + 1), Init: 0, PortOf: program.PairPorts(procs, 1, 0)},
		// announce1 written by process 1, read by process 0.
		{Name: "announce1", Spec: types.SRSWRegister(k + 1), Init: 0, PortOf: program.PairPorts(procs, 0, 1)},
	}
	objects = appendBits(objects, procs, Bits(k))
	return &program.Implementation{
		Name:     fmt.Sprintf("multivalue-srsw-consensus(k=%d)", k),
		Target:   types.MultiConsensus(procs, k),
		Procs:    procs,
		Objects:  objects,
		Machines: []program.Machine{machine(0, procs, k, []int{1}), machine(1, procs, k, []int{0})},
	}
}
