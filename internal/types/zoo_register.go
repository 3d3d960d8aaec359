package types

// This file defines the read/write register family of the type zoo.
// Register states are plain ints holding the current value.

// Operation names used by the register family.
const (
	OpRead  = "read"
	OpWrite = "write"
)

// Read is the argument-free read invocation.
var Read = Invocation{Op: OpRead}

// Write builds a write(v) invocation.
func Write(v int) Invocation { return Invocation{Op: OpWrite, A: v} }

// Register returns the n-port, k-valued multi-reader multi-writer atomic
// register type. Values range over 0..k-1; writes of out-of-range values
// are illegal. The type is oblivious and deterministic.
func Register(ports, k int) *Spec {
	alphabet := make([]Invocation, 0, k+1)
	alphabet = append(alphabet, Read)
	for v := 0; v < k; v++ {
		alphabet = append(alphabet, Write(v))
	}
	return &Spec{
		Name:          "register",
		Ports:         ports,
		Oblivious:     true,
		Deterministic: true,
		Alphabet:      alphabet,
		Step: func(q State, _ int, inv Invocation) []Transition {
			cur, ok := q.(int)
			if !ok {
				return nil
			}
			switch inv.Op {
			case OpRead:
				return []Transition{{Next: cur, Resp: ValOf(cur)}}
			case OpWrite:
				if inv.A < 0 || inv.A >= k {
					return nil
				}
				return []Transition{{Next: inv.A, Resp: OK}}
			}
			return nil
		},
	}
}

// Bit returns the n-port multi-reader multi-writer atomic boolean register.
func Bit(ports int) *Spec {
	s := Register(ports, 2)
	s.Name = "bit"
	return s
}

// SRSWBit returns the single-reader single-writer atomic bit: the 2-valued
// SRSWRegister, on which port 1 may only read and port 2 may only write.
// This is the register form the Theorem 5 pipeline consumes — Section 4.1
// of the paper reduces all registers to these.
func SRSWBit() *Spec {
	s := SRSWRegister(2)
	s.Name = "srsw-bit"
	return s
}

// SRSWBitReaderPort and SRSWBitWriterPort name the port convention of
// SRSWBit: the reading process connects to port 1 and the writing process
// to port 2, matching the reader/writer roles of Sections 4.3 and 5.2.
const (
	SRSWBitReaderPort = 1
	SRSWBitWriterPort = 2
)

// SRSWRegister returns the single-reader single-writer k-valued atomic
// register: port 1 reads, port 2 writes. The Theorem 5 pipeline compiles
// these into SRSW bits via the machine-level Vidyasankar construction
// (core.CompileSRSWRegisters), which is the Section 4.1 reduction run at
// the program level.
func SRSWRegister(k int) *Spec {
	alphabet := make([]Invocation, 0, k+1)
	alphabet = append(alphabet, Read)
	for v := 0; v < k; v++ {
		alphabet = append(alphabet, Write(v))
	}
	return &Spec{
		Name:          "srsw-register",
		Ports:         2,
		Oblivious:     false,
		Deterministic: true,
		Alphabet:      alphabet,
		Step: func(q State, port int, inv Invocation) []Transition {
			cur, ok := q.(int)
			if !ok {
				return nil
			}
			switch {
			case inv.Op == OpRead && port == SRSWBitReaderPort:
				return []Transition{{Next: cur, Resp: ValOf(cur)}}
			case inv.Op == OpWrite && port == SRSWBitWriterPort:
				if inv.A < 0 || inv.A >= k {
					return nil
				}
				return []Transition{{Next: inv.A, Resp: OK}}
			}
			return nil
		},
	}
}
