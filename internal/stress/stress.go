// Package stress provides the concurrent correctness-testing harness used
// by tests and experiments: a clock-stamped history recorder whose
// histories are checked for atomicity or single-writer regularity. The
// exhaustive explorer (package explore) proves properties of small
// instances; this package samples large instances under the Go scheduler
// and checks the recorded histories with package linearize.
package stress

import (
	"sync"

	"waitfree/internal/hist"
	"waitfree/internal/linearize"
	"waitfree/internal/types"
)

// Recorder collects a concurrent history of operations with a global
// logical clock. It is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	clock int64
	ops   hist.History
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Tick returns the next clock value.
func (r *Recorder) Tick() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	return int(r.clock)
}

// Record appends one operation.
func (r *Recorder) Record(op hist.Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
}

// Read performs f as a clock-stamped read operation by proc.
func (r *Recorder) Read(proc int, f func() int) int {
	begin := r.Tick()
	v := f()
	r.Record(hist.Op{Proc: proc, Port: 1, Inv: types.Read, Resp: types.ValOf(v), Begin: begin, End: r.Tick()})
	return v
}

// Write performs f as a clock-stamped write(v) operation by proc.
func (r *Recorder) Write(proc, v int, f func()) {
	begin := r.Tick()
	f()
	r.Record(hist.Op{Proc: proc, Port: 1, Inv: types.Write(v), Resp: types.OK, Begin: begin, End: r.Tick()})
}

// Op performs f as a clock-stamped operation with an arbitrary invocation.
func (r *Recorder) Op(proc, port int, inv types.Invocation, f func() types.Response) types.Response {
	begin := r.Tick()
	resp := f()
	r.Record(hist.Op{Proc: proc, Port: port, Inv: inv, Resp: resp, Begin: begin, End: r.Tick()})
	return resp
}

// History returns a copy of the recorded history.
func (r *Recorder) History() hist.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(hist.History(nil), r.ops...)
}

// CheckAtomic verifies the history is linearizable as a k-valued register
// initialized to init.
func (r *Recorder) CheckAtomic(k, init int) error {
	_, err := linearize.Check(types.Register(1, k), init, r.History())
	return err
}

// CheckRegular verifies single-writer regularity of the history (see
// linearize.CheckRegular, which also fixes the handling of pending
// operations).
func (r *Recorder) CheckRegular(init int) error {
	return linearize.CheckRegular(r.History(), init)
}
