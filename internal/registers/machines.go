package registers

import (
	"fmt"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// This file expresses every layer of the Section 4.1 chain as machines
// (package program), so the execution-tree explorer can check them
// exhaustively on small instances. The Lamport constructions promise
// regularity, not atomicity, so their leaf histories are checked against
// the single-writer regularity condition; the Vidyasankar, MRSW and MRMW
// layers are checked for linearizability.

// LamportMRBitMachines builds the multi-reader regular bit from one SRSW
// bit per reader, as an implementation of the (regular) bit type for
// readers+1 processes: process 0..readers-1 read, process readers writes.
//
// Object layout: copy[r] is reader r's SRSW bit (reader r on port 1, the
// writer on port 2).
func LamportMRBitMachines(readers, init int) *program.Implementation {
	procs := readers + 1
	writerProc := readers
	objects := make([]program.ObjectDecl, readers)
	for r := 0; r < readers; r++ {
		objects[r] = program.ObjectDecl{
			Name:   fmt.Sprintf("copy%d", r),
			Spec:   types.SRSWBit(),
			Init:   init,
			PortOf: program.PairPorts(procs, r, writerProc),
		}
	}

	// Reader r's machine: read own copy.
	readerMachine := func(r int) program.Machine {
		type st struct{ PC int }
		return program.FuncMachine{
			StartFn: func(_ types.Invocation, _ any) any { return st{} },
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				s := state.(st)
				if s.PC == 0 {
					return program.InvokeAction(r, types.Read), st{PC: 1}
				}
				return program.ReturnAction(resp, nil), s
			},
		}
	}
	// Writer machine: write every copy in turn.
	type wst struct {
		PC int
		V  int
	}
	writerMachine := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any { return wst{V: inv.A & 1} },
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			s := state.(wst)
			if s.PC < readers {
				return program.InvokeAction(s.PC, types.Write(s.V)), wst{PC: s.PC + 1, V: s.V}
			}
			return program.ReturnAction(types.OK, nil), s
		},
	}

	machines := make([]program.Machine, procs)
	for r := 0; r < readers; r++ {
		machines[r] = readerMachine(r)
	}
	machines[writerProc] = writerMachine
	return &program.Implementation{
		Name:     fmt.Sprintf("lamport-mrbit(readers=%d)", readers),
		Target:   types.Bit(procs),
		Procs:    procs,
		Objects:  objects,
		Machines: machines,
	}
}

// LamportMultiRegMachines builds the k-valued regular register from
// multi-reader bits (here: one SRSW bit per reader per value level, i.e.
// the two Lamport layers composed) for one reader and one writer — the
// smallest instance that exercises the unary upscan against concurrent
// downward clears.
//
// Object layout: level[j] for value level j, the bits of
// VidyasankarDecls (reader on port 1, writer on port 2). Write(v) is
// VidyasankarWriter's: set level[v], clear level[v-1..0]. Read: upscan
// for the first set bit, without Vidyasankar's confirming downscan.
func LamportMultiRegMachines(k, init int) *program.Implementation {
	// Vidyasankar's bits, named by value level.
	objects := VidyasankarDecls("", 2, 0, 1, k, init)
	for j := range objects {
		objects[j].Name = fmt.Sprintf("level%d", j)
	}
	type rst struct {
		PC int
		J  int
	}
	reader := program.FuncMachine{
		StartFn: func(_ types.Invocation, _ any) any { return rst{} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(rst)
			if s.PC == 1 {
				if resp.Val == 1 || s.J == k-1 {
					return program.ReturnAction(types.ValOf(s.J), nil), s
				}
				s.J++
			}
			return program.InvokeAction(s.J, types.Read), rst{PC: 1, J: s.J}
		},
	}
	return &program.Implementation{
		Name:     fmt.Sprintf("lamport-multireg(k=%d)", k),
		Target:   types.SRSWRegister(k),
		Procs:    2,
		Objects:  objects,
		Machines: []program.Machine{reader, VidyasankarWriter(0, k)},
	}
}

// vidWriteState drives the write routine: set bits[v], then clear
// bits[v-1] .. bits[0].
type vidWriteState struct {
	V    int
	Next int // next bit index to touch; -1 when done
	Set  bool
}

// VidyasankarWriter implements write(v) of Vidyasankar's k-valued SRSW
// atomic register over k SRSW bits at object indices base..base+k-1.
func VidyasankarWriter(base, k int) program.Machine {
	return program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any {
			return vidWriteState{V: inv.A, Next: inv.A}
		},
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			s, ok := state.(vidWriteState)
			if !ok {
				panic("registers: VidyasankarWriter driven with foreign state")
			}
			if !s.Set {
				return program.InvokeAction(base+s.V, types.Write(1)),
					vidWriteState{V: s.V, Next: s.V - 1, Set: true}
			}
			if s.Next < 0 {
				return program.ReturnAction(types.OK, nil), s
			}
			return program.InvokeAction(base+s.Next, types.Write(0)),
				vidWriteState{V: s.V, Next: s.Next - 1, Set: true}
		},
	}
}

// vidReadState drives the read routine: upscan for the first set bit over
// bits[0..k-2] (an all-zero upscan implies the value k-1 without reading
// the top bit), then downscan from the candidate's predecessor to bit 0,
// adopting the lowest set bit seen. J is the index of the bit whose
// response the machine is receiving; -1 before the first read.
type vidReadState struct {
	Phase int // 0 = upscan, 1 = downscan
	J     int
	V     int // candidate value
}

// VidyasankarReader implements read of Vidyasankar's register over k SRSW
// bits at object indices base..base+k-1 (k >= 2). The downscan is what
// upgrades Lamport's regular construction to an atomic one: consecutive
// reads never see a new/old inversion.
func VidyasankarReader(base, k int) program.Machine {
	return program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return vidReadState{J: -1} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s, ok := state.(vidReadState)
			if !ok {
				panic("registers: VidyasankarReader driven with foreign state")
			}
			if s.Phase == 0 {
				if s.J == -1 {
					return program.InvokeAction(base, types.Read), vidReadState{J: 0}
				}
				v := -1
				switch {
				case resp.Val == 1:
					v = s.J // first set bit found
				case s.J == k-2:
					v = k - 1 // upscan exhausted: the value is the top index
				}
				if v == -1 {
					return program.InvokeAction(base+s.J+1, types.Read),
						vidReadState{Phase: 0, J: s.J + 1}
				}
				if v == 0 {
					return program.ReturnAction(types.ValOf(0), nil), s
				}
				return program.InvokeAction(base+v-1, types.Read),
					vidReadState{Phase: 1, J: v - 1, V: v}
			}
			// Downscan: resp answers bits[J].
			if resp.Val == 1 {
				s.V = s.J
			}
			if s.J == 0 {
				return program.ReturnAction(types.ValOf(s.V), nil), s
			}
			return program.InvokeAction(base+s.J-1, types.Read),
				vidReadState{Phase: 1, J: s.J - 1, V: s.V}
		},
	}
}

// VidyasankarDecls declares the k SRSW bits encoding one k-valued register
// named name, read by readerProc and written by writerProc out of procs:
// bit j is 1 exactly at the register's initial value.
func VidyasankarDecls(name string, procs, readerProc, writerProc, k, init int) []program.ObjectDecl {
	decls := make([]program.ObjectDecl, k)
	for j := range decls {
		b := 0
		if j == init {
			b = 1
		}
		decls[j] = program.ObjectDecl{
			Name:   fmt.Sprintf("%s.bit%d", name, j),
			Spec:   types.SRSWBit(),
			Init:   b,
			PortOf: program.PairPorts(procs, readerProc, writerProc),
		}
	}
	return decls
}

// VidyasankarMachines builds Vidyasankar's k-valued SRSW atomic register
// on its own, as an implementation of the SRSW register type: process 0
// reads, process 1 writes.
func VidyasankarMachines(k, init int) *program.Implementation {
	return &program.Implementation{
		Name:     fmt.Sprintf("vidyasankar(k=%d)", k),
		Target:   types.SRSWRegister(k),
		Procs:    2,
		Objects:  VidyasankarDecls("reg", 2, 0, 1, k, init),
		Machines: []program.Machine{VidyasankarReader(0, k), VidyasankarWriter(0, k)},
	}
}

// mrswReadState is a reader's position in its fixed access sequence and
// the freshest cell value (ts*k+v) it has seen.
type mrswReadState struct {
	PC   int
	Best int
}

// mrswWriteState is the writer's timestamp for this write, its value, and
// the next reader cell to write.
type mrswWriteState struct {
	TS, V, PC int
}

// MRSWMachines builds the single-writer, multi-reader, k-valued atomic
// register (reader-announce construction) for readers+1 processes:
// processes 0..readers-1 read, process readers writes. It runs over SRSW
// atomic registers (Vidyasankar's layer) whose cells hold ts*k+v, so a
// larger cell value is a fresher write.
//
// Object layout: val[r] (index r) is written by the writer and read by
// reader r; report[i][j] (i != j) is written by reader i and read by
// reader j. The writer keeps its timestamp in its persistent memory and
// writes (ts+1, v) into every val cell. A reader reads val[r] and every
// report[j][r], announces the freshest value in every report[r][j], and
// returns it; the announcement is what keeps a later read by another
// reader from returning an older value.
//
// The cells hold timestamps 0..maxWrites: the writer's write number
// maxWrites+1 has no transition in the cell type and fails the run.
func MRSWMachines(readers, k, maxWrites, init int) *program.Implementation {
	procs := readers + 1
	writer := readers
	cell := types.SRSWRegister(k * (maxWrites + 1))
	objects := make([]program.ObjectDecl, 0, readers*readers)
	for r := 0; r < readers; r++ {
		objects = append(objects, program.ObjectDecl{
			Name: fmt.Sprintf("val%d", r), Spec: cell, Init: init,
			PortOf: program.PairPorts(procs, r, writer),
		})
	}
	report := make([][]int, readers)
	for i := range report {
		report[i] = make([]int, readers)
		for j := range report[i] {
			if i == j {
				continue
			}
			report[i][j] = len(objects)
			objects = append(objects, program.ObjectDecl{
				Name: fmt.Sprintf("report%d.%d", i, j), Spec: cell, Init: init,
				PortOf: program.PairPorts(procs, j, i),
			})
		}
	}

	reader := func(r int) program.Machine {
		reads, announces := []int{r}, []int(nil)
		for j := 0; j < readers; j++ {
			if j != r {
				reads = append(reads, report[j][r])
				announces = append(announces, report[r][j])
			}
		}
		return program.FuncMachine{
			StartFn: func(types.Invocation, any) any { return mrswReadState{} },
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				s := state.(mrswReadState)
				if s.PC > 0 && s.PC <= len(reads) && resp.Val > s.Best {
					s.Best = resp.Val
				}
				switch {
				case s.PC < len(reads):
					return program.InvokeAction(reads[s.PC], types.Read), mrswReadState{PC: s.PC + 1, Best: s.Best}
				case s.PC < len(reads)+len(announces):
					return program.InvokeAction(announces[s.PC-len(reads)], types.Write(s.Best)),
						mrswReadState{PC: s.PC + 1, Best: s.Best}
				}
				return program.ReturnAction(types.ValOf(s.Best%k), nil), s
			},
		}
	}
	machines := make([]program.Machine, procs)
	for r := 0; r < readers; r++ {
		machines[r] = reader(r)
	}
	machines[writer] = program.FuncMachine{
		StartFn: func(inv types.Invocation, mem any) any {
			ts, _ := mem.(int)
			return mrswWriteState{TS: ts + 1, V: inv.A}
		},
		NextFn: func(state any, _ types.Response) (program.Action, any) {
			s := state.(mrswWriteState)
			if s.PC < readers {
				return program.InvokeAction(s.PC, types.Write(s.TS*k+s.V)), mrswWriteState{TS: s.TS, V: s.V, PC: s.PC + 1}
			}
			return program.ReturnAction(types.OK, s.TS), s
		},
	}
	return &program.Implementation{
		Name:     fmt.Sprintf("mrsw-atomic(readers=%d,k=%d)", readers, k),
		Target:   types.Register(procs, k),
		Procs:    procs,
		Objects:  objects,
		Machines: machines,
	}
}

// wTag encodes value v tagged with timestamp ts and writer id, for the
// given numbers of writers and values: integer order on tags is the
// lexicographic order on (ts, id).
func wTag(ts, id, v, writers, k int) int { return (ts*writers+id)*k + v }

// mrmwState is a collect over the per-writer registers: the next register
// to read, the largest tag seen, and (for writers) the value to write.
type mrmwState struct {
	PC, Best, V int
}

// MRMWMachines builds the multi-writer, multi-reader, k-valued atomic
// register (timestamp-maximum construction): processes 0..writers-1 write,
// processes writers..writers+readers-1 read. It runs over one multi-reader
// atomic register per writer (the MRSW layer) holding a wTag.
//
// A writer collects every register, then writes (max ts + 1, id, v) into
// its own. A reader collects every register and returns the value of the
// largest tag. Every register starts at timestamp 0 with the initial
// value, so the pre-write maximum is init whichever register wins the
// tie-break.
//
// maxWrites bounds the writes of a run, hence the largest timestamp: a
// write beyond it has no transition in the register type and fails the
// run.
func MRMWMachines(writers, readers, k, maxWrites, init int) *program.Implementation {
	procs := writers + readers
	reg := types.Register(procs, wTag(maxWrites+1, 0, 0, writers, k))
	objects := make([]program.ObjectDecl, writers)
	for w := range objects {
		objects[w] = program.ObjectDecl{
			Name: fmt.Sprintf("reg%d", w), Spec: reg, Init: wTag(0, w, init, writers, k),
			PortOf: program.AllPorts(procs),
		}
	}
	// collect folds the response of register s.PC-1 into Best and returns
	// the next read, or false once every register has been read.
	collect := func(s mrmwState, resp types.Response) (mrmwState, program.Action, bool) {
		if s.PC > 0 && s.PC <= writers && resp.Val > s.Best {
			s.Best = resp.Val
		}
		if s.PC < writers {
			return mrmwState{PC: s.PC + 1, Best: s.Best, V: s.V}, program.InvokeAction(s.PC, types.Read), true
		}
		return s, program.Action{}, false
	}
	writer := func(id int) program.Machine {
		return program.FuncMachine{
			StartFn: func(inv types.Invocation, _ any) any { return mrmwState{V: inv.A} },
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				s, act, more := collect(state.(mrmwState), resp)
				switch {
				case more:
					return act, s
				case s.PC == writers:
					ts := s.Best / k / writers
					return program.InvokeAction(id, types.Write(wTag(ts+1, id, s.V, writers, k))),
						mrmwState{PC: writers + 1, Best: s.Best, V: s.V}
				}
				return program.ReturnAction(types.OK, nil), s
			},
		}
	}
	reader := program.FuncMachine{
		StartFn: func(types.Invocation, any) any { return mrmwState{} },
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s, act, more := collect(state.(mrmwState), resp)
			if more {
				return act, s
			}
			return program.ReturnAction(types.ValOf(s.Best%k), nil), s
		},
	}
	machines := make([]program.Machine, procs)
	for w := 0; w < writers; w++ {
		machines[w] = writer(w)
	}
	for r := writers; r < procs; r++ {
		machines[r] = reader
	}
	return &program.Implementation{
		Name:     fmt.Sprintf("mrmw-atomic(writers=%d,readers=%d,k=%d)", writers, readers, k),
		Target:   types.Register(procs, k),
		Procs:    procs,
		Objects:  objects,
		Machines: machines,
	}
}
