// Package runtime executes implementations (package program) concurrently:
// one goroutine per process, shared objects realized as mutex-atomic
// instantiations of their type specs, interleavings controlled by a
// scheduler (package sched), and the complete target-level history
// recorded for linearizability checking.
//
// The execution-tree explorer (package explore) enumerates all behaviors
// of small instances; this runtime samples behaviors of large instances of
// the same machines, for tests, experiments and benchmarks. It is the
// repository's only concurrent history recorder. RunSeeded is one sample:
// a reproducible run under a seeded sched.Token schedule, whose history
// the caller checks with package linearize.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"waitfree/internal/faults"
	"waitfree/internal/hist"
	"waitfree/internal/program"
	"waitfree/internal/sched"
	"waitfree/internal/types"
)

// Object is a thread-safe instantiation of a type spec: invocations apply
// one transition atomically. Nondeterministic transitions are resolved by
// the Resolve function (uniformly at random by default).
type Object struct {
	spec *types.Spec

	mu      sync.Mutex
	state   types.State
	resolve func(n int) int
}

// DefaultSeed seeds the nondeterminism resolver when the caller supplies
// none.
const DefaultSeed int64 = 1

// RandomResolver returns a resolver that picks among nondeterministic
// transitions uniformly at random from the given seed. The returned
// function is safe for concurrent use and may be shared across objects;
// with a fixed seed and a serializing scheduler the whole run is
// reproducible.
func RandomResolver(seed int64) func(n int) int {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return rng.Intn(n)
	}
}

// NewObject creates an object of the given type in the given initial
// state. resolve picks among nondeterministic transitions (nil means
// RandomResolver(DefaultSeed), private to this object and created at the
// object's first nondeterministic transition).
func NewObject(spec *types.Spec, init types.State, resolve func(n int) int) *Object {
	return &Object{spec: spec, state: init, resolve: resolve}
}

// Spec returns the object's type.
func (o *Object) Spec() *types.Spec { return o.spec }

// State returns the object's current state (for post-run inspection; racy
// if invoked concurrently with Invoke).
func (o *Object) State() types.State {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.state
}

// Invoke atomically applies inv on the given port and returns the
// response.
func (o *Object) Invoke(port int, inv types.Invocation) (types.Response, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ts, err := o.spec.Apply(o.state, port, inv)
	if err != nil {
		return types.Response{}, err
	}
	t := ts[0]
	if len(ts) > 1 {
		if o.resolve == nil {
			o.resolve = RandomResolver(DefaultSeed)
		}
		// Normalize the user-supplied resolver's pick into [0, len(ts)):
		// Go's % keeps the dividend's sign, so a negative return would
		// otherwise index out of range.
		idx := o.resolve(len(ts)) % len(ts)
		if idx < 0 {
			idx += len(ts)
		}
		t = ts[idx]
	}
	o.state = t.Next
	return t.Resp, nil
}

// Outcome is the result of one concurrent run.
type Outcome struct {
	// Responses[p] lists the responses of process p's completed target
	// operations, in order.
	Responses [][]types.Response
	// History is the target-level concurrent history (Port = proc+1);
	// operations cut short by a crash are pending.
	History hist.History
	// Crashed[p] reports whether process p was stopped by the scheduler
	// and never recovered.
	Crashed []bool
	// Recoveries[p] counts how many times process p crashed and was
	// re-admitted by a sched.RecoverScheduler (always 0 under plain
	// schedulers).
	Recoveries []int
	// Steps is the total number of object accesses performed.
	Steps int64
	// Mems[p] is process p's persistent memory after the run.
	Mems []any
}

// Runner executes an implementation concurrently.
type Runner struct {
	impl    *program.Implementation
	sch     sched.Scheduler
	objects []*Object
}

// New creates a Runner for im with fresh objects. scheduler may be nil
// (free-running). resolve (may be nil) picks nondeterministic transitions
// for all objects.
func New(im *program.Implementation, scheduler sched.Scheduler, resolve func(n int) int) (*Runner, error) {
	if err := im.Validate(); err != nil {
		return nil, err
	}
	if scheduler == nil {
		scheduler = sched.Free{}
	}
	objects := make([]*Object, len(im.Objects))
	for i := range im.Objects {
		objects[i] = NewObject(im.Objects[i].Spec, im.Objects[i].Init, resolve)
	}
	return &Runner{impl: im, sch: scheduler, objects: objects}, nil
}

// Objects exposes the runner's objects for post-run inspection.
func (r *Runner) Objects() []*Object { return r.objects }

// Run executes the scripts (scripts[p] is the sequence of target
// invocations process p performs) and collects the outcome. Mems (may be
// nil) seeds each process's persistent memory.
func (r *Runner) Run(scripts [][]types.Invocation, mems []any) (*Outcome, error) {
	if len(scripts) != r.impl.Procs {
		return nil, fmt.Errorf("runtime: %d scripts for %d processes", len(scripts), r.impl.Procs)
	}
	out := &Outcome{
		Responses:  make([][]types.Response, r.impl.Procs),
		Crashed:    make([]bool, r.impl.Procs),
		Recoveries: make([]int, r.impl.Procs),
		Mems:       make([]any, r.impl.Procs),
	}
	if mems != nil {
		copy(out.Mems, mems)
	}
	var clock atomic.Int64
	var steps atomic.Int64
	histories := make([]hist.History, r.impl.Procs)
	errs := make([]error, r.impl.Procs)

	var wg sync.WaitGroup
	for p := 0; p < r.impl.Procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer r.sch.Done(p)
			// Deferred after Done so it runs first (LIFO): a panic in
			// protocol code is converted into a structured error on this
			// process, and Done is still signalled so serializing schedulers
			// (Token, Stutter) terminate instead of deadlocking the run.
			defer func() {
				if rec := recover(); rec != nil {
					errs[p] = faults.NewPanicError("runtime", p,
						fmt.Sprintf("after %d object accesses", steps.Load()), rec, debug.Stack())
				}
			}()
			errs[p] = r.runProc(p, scripts[p], out, &clock, &steps, &histories[p])
		}(p)
	}
	wg.Wait()

	for _, h := range histories {
		out.History = append(out.History, h...)
	}
	out.Steps = steps.Load()
	var joined []error
	for p, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("process %d: %w", p, err))
		}
	}
	if len(joined) > 0 {
		return out, errors.Join(joined...)
	}
	return out, nil
}

func (r *Runner) runProc(p int, script []types.Invocation, out *Outcome, clock, steps *atomic.Int64, h *hist.History) error {
	m := r.impl.Machines[p]
	mem := out.Mems[p]
	for _, inv := range script {
	attempt:
		for {
			opIdx := len(*h)
			*h = append(*h, hist.Op{
				Proc:  p,
				Port:  p + 1,
				Inv:   inv,
				Begin: int(clock.Add(1)),
				End:   hist.Pending,
			})
			st := m.Start(inv, mem)
			resp := types.Response{}
			for {
				act, next := m.Next(st, resp)
				st = next
				if act.Kind == program.KindReturn {
					(*h)[opIdx].Resp = act.Resp
					(*h)[opIdx].End = int(clock.Add(1))
					out.Responses[p] = append(out.Responses[p], act.Resp)
					mem = act.Mem
					break attempt
				}
				if act.Kind != program.KindInvoke {
					return fmt.Errorf("invalid action kind %d", act.Kind)
				}
				if act.Obj < 0 || act.Obj >= len(r.objects) {
					return fmt.Errorf("unknown object %d", act.Obj)
				}
				port := r.impl.Objects[act.Obj].Port(p)
				if port == 0 {
					return fmt.Errorf("no port on object %d (%s)", act.Obj, r.impl.Objects[act.Obj].Name)
				}
				if !r.sch.Next(p) {
					if rs, ok := r.sch.(sched.RecoverScheduler); ok && rs.Recover(p) {
						// Crash-recovery: the interrupted operation's history
						// entry stays pending forever (a crashed access never
						// returns), the re-execution opens a fresh entry, and
						// volatile memory is lost while the shared objects
						// persist.
						out.Recoveries[p]++
						mem = nil
						continue attempt
					}
					out.Crashed[p] = true
					out.Mems[p] = mem
					return nil
				}
				clock.Add(1)
				steps.Add(1)
				var err error
				resp, err = r.objects[act.Obj].Invoke(port, act.Inv)
				if err != nil {
					return err
				}
			}
		}
	}
	out.Mems[p] = mem
	return nil
}

// RunSeeded runs scripts on a fresh Runner for im under the sched.Token
// schedule drawn from seed, and stops the scheduler afterwards. Token
// crashes no one, so a process that did not finish its script is an
// error, as is any error of the run itself.
func RunSeeded(im *program.Implementation, scripts [][]types.Invocation, seed int64) (*Outcome, error) {
	tok := sched.NewToken(im.Procs, seed, nil)
	defer tok.Stop()
	r, err := New(im, tok, nil)
	if err != nil {
		return nil, err
	}
	out, err := r.Run(scripts, nil)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	for p, crashed := range out.Crashed {
		if crashed {
			return nil, fmt.Errorf("seed %d: process %d did not finish", seed, p)
		}
	}
	return out, nil
}
