package stress

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"waitfree/internal/hist"
	"waitfree/internal/types"
)

func TestRecorderClockMonotone(t *testing.T) {
	r := NewRecorder()
	prev := 0
	for i := 0; i < 100; i++ {
		v := r.Tick()
		if v <= prev {
			t.Fatalf("clock not monotone: %d then %d", prev, v)
		}
		prev = v
	}
}

func TestRecorderConcurrentTicksDistinct(t *testing.T) {
	r := NewRecorder()
	var mu sync.Mutex
	seen := make(map[int]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := r.Tick()
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate tick %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// atomicRegister is a hardware-atomic int register: every read and write
// takes effect inside its recorded interval, so its histories are atomic.
type atomicRegister struct{ v atomic.Int64 }

func (r *atomicRegister) Read() int   { return int(r.v.Load()) }
func (r *atomicRegister) Write(v int) { r.v.Store(int64(v)) }

// drive runs writers and readers concurrently against reg, recording every
// operation; writer w writes values[w] in order, each reader reads ops
// times. Writers are processes 0..len(values)-1, readers follow.
func drive(reg *atomicRegister, values [][]int, readers, ops int) *Recorder {
	rec := NewRecorder()
	var wg sync.WaitGroup
	for w, vals := range values {
		wg.Add(1)
		go func(w int, vals []int) {
			defer wg.Done()
			for _, v := range vals {
				rec.Write(w, v, func() { reg.Write(v) })
			}
		}(w, vals)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				rec.Read(proc, reg.Read)
			}
		}(len(values) + rd)
	}
	wg.Wait()
	return rec
}

func randomValues(rng *rand.Rand, writers, ops, k int) [][]int {
	values := make([][]int, writers)
	for w := range values {
		values[w] = make([]int, ops)
		for i := range values[w] {
			values[w][i] = rng.Intn(k)
		}
	}
	return values
}

func TestCheckAtomicOnAtomicRegister(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := drive(&atomicRegister{}, randomValues(rng, 2, 7, 8), 2, 7)
		if err := rec.CheckAtomic(8, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCheckRegularAcceptsRegularRejectsGarbage(t *testing.T) {
	// A history with a stale-but-overlapping read is regular.
	r := NewRecorder()
	wBegin := r.Tick()
	rBegin := r.Tick()
	r.Record(historyOp(1, types.Read, types.ValOf(0), rBegin, r.Tick()))
	r.Record(historyOp(0, types.Write(1), types.OK, wBegin, r.Tick()))
	if err := r.CheckRegular(0); err != nil {
		t.Fatalf("regular history rejected: %v", err)
	}
	// A read returning a never-written, non-initial value is not regular.
	bad := NewRecorder()
	b := bad.Tick()
	bad.Record(historyOp(1, types.Read, types.ValOf(7), b, bad.Tick()))
	if err := bad.CheckRegular(0); err == nil {
		t.Fatal("garbage read accepted as regular")
	} else if !strings.Contains(err.Error(), "not regular") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckRegularPendingWrite(t *testing.T) {
	// The Recorder hands pending operations to linearize.CheckRegular,
	// whose table test covers the cases; here a write left pending by a
	// crashed writer allows its value to a later read, and a pending write
	// beginning after the read allows nothing.
	r := NewRecorder()
	wBegin := r.Tick()
	r.Record(hist.Op{Proc: 0, Port: 1, Inv: types.Write(5), Begin: wBegin, End: hist.Pending})
	rBegin := r.Tick()
	r.Record(historyOp(1, types.Read, types.ValOf(5), rBegin, r.Tick()))
	if err := r.CheckRegular(0); err != nil {
		t.Fatalf("read overlapping a pending write rejected: %v", err)
	}

	bad := NewRecorder()
	brBegin := bad.Tick()
	bad.Record(historyOp(1, types.Read, types.ValOf(5), brBegin, bad.Tick()))
	bwBegin := bad.Tick()
	bad.Record(hist.Op{Proc: 0, Port: 1, Inv: types.Write(5), Begin: bwBegin, End: hist.Pending})
	if err := bad.CheckRegular(0); err == nil {
		t.Fatal("read of a future pending write accepted")
	}
}

func TestCheckRegularCrashInjectedRun(t *testing.T) {
	// Crash the writer mid-operation against a live register: the write
	// takes effect but its recorded operation stays pending. Concurrent
	// readers may observe either value; regularity must accept every
	// interleaving.
	for iter := 0; iter < 20; iter++ {
		reg := &atomicRegister{}
		rec := NewRecorder()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			begin := rec.Tick()
			reg.Write(7) // applied, but the writer crashes before returning
			rec.Record(hist.Op{Proc: 0, Port: 1, Inv: types.Write(7), Begin: begin, End: hist.Pending})
		}()
		for rd := 0; rd < 2; rd++ {
			wg.Add(1)
			go func(proc int) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					rec.Read(proc, reg.Read)
				}
			}(1 + rd)
		}
		wg.Wait()
		if err := rec.CheckRegular(0); err != nil {
			t.Fatalf("iter %d: crash-injected run rejected: %v", iter, err)
		}
	}
}

func TestRunSingleWriterRegularUnderRace(t *testing.T) {
	// Heavier concurrent run aimed at the race detector: one writer and
	// three readers on an atomic register. Atomicity implies regularity,
	// so CheckRegular must accept every interleaving.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec := drive(&atomicRegister{}, randomValues(rng, 1, 16, 4), 3, 16)
		if err := rec.CheckRegular(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestOpRecordsArbitraryInvocations(t *testing.T) {
	r := NewRecorder()
	resp := r.Op(2, 3, types.TAS, func() types.Response { return types.ValOf(0) })
	if resp != types.ValOf(0) {
		t.Fatalf("Op returned %v", resp)
	}
	h := r.History()
	if len(h) != 1 || h[0].Proc != 2 || h[0].Port != 3 || h[0].Inv != types.TAS {
		t.Fatalf("recorded op = %+v", h)
	}
}

func historyOp(proc int, inv types.Invocation, resp types.Response, begin, end int) hist.Op {
	return hist.Op{Proc: proc, Port: 1, Inv: inv, Resp: resp, Begin: begin, End: end}
}
