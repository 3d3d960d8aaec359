package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"waitfree/internal/explore"
	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/registers"
	"waitfree/internal/stress"
	"waitfree/internal/types"
)

// E2 reproduces the Section 4.1 chain: multi-reader, multi-writer,
// multi-value atomic registers from SRSW bits. Every layer is stressed
// concurrently and its recorded histories are checked against the
// appropriate condition — regularity for the Lamport layers, atomicity
// (linearizability) for the rest. The base regular bit is additionally
// shown NOT to be atomic (the new/old inversion), which is why the
// Vidyasankar downscan exists.
func E2() (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Register construction chain (Section 4.1)",
		PaperClaim: "There is a wait-free implementation of multi-reader multi-writer atomic " +
			"multi-value registers from single-reader single-writer bits " +
			"(Lamport; Burns-Peterson; Peterson; Peterson-Burns).",
		Expectation: "Each layer passes its condition; base cells per object grow with fan-out; " +
			"a bare regular bit fails atomicity.",
		Columns: []string{"layer", "parties", "values", "base cells", "trials", "condition", "holds"},
	}
	allOK := true

	// Base regular bit: regular yes, atomic no (deterministic inversion).
	invOK := e2RegularInversion()
	allOK = allOK && invOK
	t.Rows = append(t.Rows, []string{"regular bit (base cell)", "1W/1R", "2", "1", "deterministic",
		"regular but NOT atomic", yn(invOK)})

	// Lamport multi-reader regular bit.
	ok, trials := e2StressRegular(func() (write func(int), read func(int) int) {
		reg := registers.NewLamportMRBit(2, 0, func(init int) registers.Bit {
			return registers.NewRegularBit(init, nil)
		})
		return reg.Write, reg.Read
	}, 2, 2)
	allOK = allOK && ok
	t.Rows = append(t.Rows, []string{"Lamport MRSW regular bit", "1W/2R", "2", "2",
		strconv.Itoa(trials), "regularity", yn(ok)})

	// Lamport multi-value regular register.
	ok, trials = e2StressRegular(func() (func(int), func(int) int) {
		reg := registers.NewLamportMultiReg(4, 0, func(init int) registers.MultiReaderBit {
			return registers.NewLamportMRBit(2, init, func(i int) registers.Bit {
				return registers.NewRegularBit(i, nil)
			})
		})
		return reg.Write, reg.Read
	}, 2, 4)
	allOK = allOK && ok
	t.Rows = append(t.Rows, []string{"Lamport MRSW regular multi-value", "1W/2R", "4", "8",
		strconv.Itoa(trials), "regularity", yn(ok)})

	// Vidyasankar SRSW atomic multi-value.
	ok, trials = e2StressAtomic(func() (func(int, int), func(int) int, int) {
		reg := registers.NewVidyasankar(4, 0, func(init int) registers.Bit {
			return registers.NewAtomicBit(init)
		})
		return func(_, v int) { reg.Write(v) }, func(int) int { return reg.Read() }, 1
	}, 1, 1, 4)
	allOK = allOK && ok
	t.Rows = append(t.Rows, []string{"Vidyasankar SRSW atomic multi-value", "1W/1R", "4", "4",
		strconv.Itoa(trials), "atomicity", yn(ok)})

	// MRSW atomic.
	mrsw := registers.NewMRSWAtomic(3, 0)
	ok, trials = e2StressAtomic(func() (func(int, int), func(int) int, int) {
		reg := registers.NewMRSWAtomic(3, 0)
		return func(_, v int) { reg.Write(v) }, reg.Read, 3
	}, 1, 3, 8)
	allOK = allOK && ok
	t.Rows = append(t.Rows, []string{"MRSW atomic multi-value", "1W/3R", "8",
		strconv.Itoa(mrsw.BaseCells()), strconv.Itoa(trials), "atomicity", yn(ok)})

	// MRMW atomic.
	mrmw := registers.NewMRMWAtomic(2, 2, 0)
	ok, trials = e2StressAtomic(func() (func(int, int), func(int) int, int) {
		reg := registers.NewMRMWAtomic(2, 2, 0)
		return reg.Write, reg.Read, 2
	}, 2, 2, 16)
	allOK = allOK && ok
	t.Rows = append(t.Rows, []string{"MRMW atomic multi-value", "2W/2R", "16",
		strconv.Itoa(mrmw.BaseCells()), strconv.Itoa(trials), "atomicity", yn(ok)})

	// Machine forms of the Lamport layers: EXHAUSTIVE regularity over all
	// interleavings, plus the exhaustive demonstration that the layer is
	// not atomic (why the chain's upper layers exist).
	regOK, leaves, err := e2LamportExhaustive()
	if err != nil {
		return nil, err
	}
	allOK = allOK && regOK
	t.Rows = append(t.Rows, []string{"Lamport MRSW regular bit (machine form)", "1W/2R", "2", "2",
		fmt.Sprintf("%d interleavings", leaves), "regularity, exhaustive", yn(regOK)})

	t.Verdict = verdict(allOK,
		"every layer satisfies its specification under concurrent stress (the Lamport "+
			"layer also exhaustively); the chain delivers MRMW multi-value atomic "+
			"registers from SRSW cells")
	return t, nil
}

// e2LamportExhaustive explores every interleaving of the machine-form
// Lamport multi-reader bit and checks single-writer regularity per leaf.
func e2LamportExhaustive() (bool, int64, error) {
	im := registers.LamportMRBitMachines(2, 0)
	scripts := [][]types.Invocation{
		{types.Read, types.Read},
		{types.Read},
		{types.Write(1), types.Write(0)},
	}
	ok := true
	res, err := explore.Run(im, scripts, explore.Options{
		RecordHistory: true,
		OnLeaf: func(l *explore.Leaf) error {
			var writes, reads hist.History
			for _, op := range l.History {
				if op.Inv.Op == types.OpWrite {
					writes = append(writes, op)
				} else {
					reads = append(reads, op)
				}
			}
			for _, rd := range reads {
				allowed := map[int]bool{}
				latestEnd := -1
				latestVal := 0
				for _, w := range writes {
					if w.End != hist.Pending && w.End < rd.Begin {
						if w.End > latestEnd {
							latestEnd = w.End
							latestVal = w.Inv.A
						}
					} else if w.Begin < rd.End {
						allowed[w.Inv.A] = true
					}
				}
				allowed[latestVal] = true
				if !allowed[rd.Resp.Val] {
					ok = false
					return fmt.Errorf("read %v not regular", rd)
				}
			}
			return nil
		},
	})
	if err != nil {
		return false, 0, err
	}
	if res.Violation != nil {
		return false, res.Leaves, nil
	}
	return ok, res.Leaves, nil
}

// e2RegularInversion builds the deterministic new/old inversion on a
// regular bit and checks it is regular yet not linearizable.
func e2RegularInversion() bool {
	choices := []bool{false, true}
	i := 0
	b := registers.NewRegularBit(0, func() bool { v := choices[i%2]; i++; return v })
	clock := 0
	tick := func() int { clock++; return clock }
	wBegin := tick()
	b.BeginWrite(1)
	r1b := tick()
	v1 := b.Read()
	r1e := tick()
	r2b := tick()
	v2 := b.Read()
	r2e := tick()
	b.EndWrite()
	h := hist.History{
		{Proc: 0, Port: 1, Inv: types.Write(1), Resp: types.OK, Begin: wBegin, End: tick()},
		{Proc: 1, Port: 1, Inv: types.Read, Resp: types.ValOf(v1), Begin: r1b, End: r1e},
		{Proc: 1, Port: 1, Inv: types.Read, Resp: types.ValOf(v2), Begin: r2b, End: r2e},
	}
	if v1 != 1 || v2 != 0 {
		return false // the adversary should produce new then old
	}
	_, err := linearize.Check(types.Register(2, 2), 0, h)
	return err != nil // must NOT be linearizable
}

// e2StressRegular runs one writer against `readers` readers and checks
// single-writer regularity of the recorded history.
func e2StressRegular(mk func() (func(int), func(int) int), readers, k int) (bool, int) {
	const trials, ops = 25, 10
	for trial := 0; trial < trials; trial++ {
		write, read := mk()
		rec := stress.NewRecorder()
		rng := rand.New(rand.NewSource(int64(trial)))
		vals := make([]int, ops)
		for i := range vals {
			vals[i] = rng.Intn(k)
		}
		var wg sync.WaitGroup
		wg.Add(1 + readers)
		go func() {
			defer wg.Done()
			for _, v := range vals {
				rec.Write(0, v, func() { write(v) })
			}
		}()
		for r := 0; r < readers; r++ {
			go func(r int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					rec.Read(1+r, func() int { return read(r) })
				}
			}(r)
		}
		wg.Wait()
		if rec.CheckRegular(0) != nil {
			return false, trials
		}
	}
	return true, trials
}

// e2StressAtomic runs writers and readers and checks linearizability of
// the recorded history against a k-valued register.
func e2StressAtomic(mk func() (func(int, int), func(int) int, int), writers, readers, k int) (bool, int) {
	const trials, ops = 25, 7
	for trial := 0; trial < trials; trial++ {
		write, read, _ := mk()
		rec := stress.NewRecorder()
		var wg sync.WaitGroup
		wg.Add(writers + readers)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					v := (1 + w*ops + i) % k
					rec.Write(w, v, func() { write(w, v) })
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			go func(r int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					rec.Read(writers+r, func() int { return read(r) })
				}
			}(r)
		}
		wg.Wait()
		if rec.CheckAtomic(k, 0) != nil {
			return false, trials
		}
	}
	return true, trials
}
