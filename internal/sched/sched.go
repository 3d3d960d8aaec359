// Package sched provides schedulers for the concurrent runtime (package
// runtime). A scheduler gates every low-level object access of every
// process, which makes interleavings reproducible (seeded schedules) and
// lets tests inject stopping failures (the paper's motivation for
// wait-freedom: implementations must tolerate any number of crashes).
package sched

import (
	"math/rand"
	"sort"
	"sync"
)

// Scheduler gates process steps.
//
// Next blocks until process p may perform its next object access and
// reports whether p is still alive; false means p has crashed and must
// stop silently. Done signals that p will not call Next again. Both
// methods are called from the process goroutines and must be safe for
// concurrent use.
//
// Done contract: every process calls Done exactly once, whether it
// finished its script, observed its crash (Next returned false), or
// failed with an error — the runtime guarantees the call even when the
// process's protocol code panics. Schedulers may therefore rely on a
// complete set of Done calls for their own termination (Token's
// dispatcher and Stutter's victim wake-up both do); conversely a
// scheduler must tolerate Done from a process that never called Next.
type Scheduler interface {
	Next(p int) bool
	Done(p int)
}

// RecoverScheduler is the optional crash-recovery extension of Scheduler.
// After Next(p) returns false (p crashed), the runtime asks Recover(p)
// whether the crashed process may re-enter from its recovery section: true
// restarts p's interrupted operation from its start with fresh volatile
// state (shared objects persist), false makes the crash permanent, exactly
// as for a plain Scheduler. Recover is called from p's own goroutine and
// must be safe for concurrent use; a process whose Recover returned false
// never asks again.
type RecoverScheduler interface {
	Scheduler
	Recover(p int) bool
}

// Free is the trivial scheduler: every step proceeds immediately and the
// interleaving is whatever the Go runtime produces.
type Free struct{}

var _ Scheduler = Free{}

// Next implements Scheduler.
func (Free) Next(int) bool { return true }

// Done implements Scheduler.
func (Free) Done(int) {}

// Crash stops chosen processes after a fixed number of steps, leaving the
// others free-running. It is used to test that implementations tolerate
// stopping failures.
type Crash struct {
	mu    sync.Mutex
	after map[int]int
	taken map[int]int
}

var _ Scheduler = (*Crash)(nil)

// NewCrash returns a scheduler that crashes process p after after[p] steps
// (processes absent from the map never crash). A value of 0 crashes the
// process before its first access.
func NewCrash(after map[int]int) *Crash {
	limits := make(map[int]int, len(after))
	for p, n := range after {
		limits[p] = n
	}
	return &Crash{after: limits, taken: make(map[int]int)}
}

// Next implements Scheduler.
func (c *Crash) Next(p int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	limit, crashes := c.after[p]
	if crashes && c.taken[p] >= limit {
		return false
	}
	c.taken[p]++
	return true
}

// Done implements Scheduler.
func (c *Crash) Done(int) {}

// Recover crashes chosen processes after a fixed number of steps, like
// Crash, but lets each crashed process recover a bounded number of times:
// after each recovery the process's step counter resets, so it crashes
// again after another after[p] accesses until its recovery budget runs
// out, at which point the crash is permanent. It drives the concurrent
// runtime's crash-recovery path (the sampling mirror of the explorer's
// faults.CrashRecovery mode).
type Recover struct {
	mu    sync.Mutex
	after map[int]int
	times map[int]int
	taken map[int]int
	used  map[int]int
}

var _ RecoverScheduler = (*Recover)(nil)

// NewRecover returns a scheduler that crashes process p after after[p]
// steps (processes absent from the map never crash; 0 crashes before the
// first access) and then lets p recover up to times[p] times.
func NewRecover(after, times map[int]int) *Recover {
	limits := make(map[int]int, len(after))
	for p, n := range after {
		limits[p] = n
	}
	budget := make(map[int]int, len(times))
	for p, n := range times {
		budget[p] = n
	}
	return &Recover{after: limits, times: budget, taken: make(map[int]int), used: make(map[int]int)}
}

// Next implements Scheduler.
func (r *Recover) Next(p int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	limit, crashes := r.after[p]
	if crashes && r.taken[p] >= limit {
		return false
	}
	r.taken[p]++
	return true
}

// Recover implements RecoverScheduler: the crashed process may re-enter
// while its recovery budget lasts, with its step counter reset.
func (r *Recover) Recover(p int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.used[p] >= r.times[p] {
		return false
	}
	r.used[p]++
	r.taken[p] = 0
	return true
}

// Done implements Scheduler.
func (r *Recover) Done(int) {}

// Stutter slows one chosen process to expose wait-freedom violations that
// depend on a laggard: before each of the victim's object accesses, the
// other processes must collectively perform pause further accesses (or
// all finish, whichever comes first). Every process still runs — unlike
// Crash, Stutter tests the "arbitrarily slow but live" adversary of the
// paper's Section 1, under which a wait-free implementation must still
// complete every operation.
type Stutter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	procs  int
	victim int
	pause  int
	credit int
	done   map[int]bool
}

var _ Scheduler = (*Stutter)(nil)

// NewStutter returns a scheduler over procs processes that delays victim:
// each of its steps waits for pause steps by the others. pause <= 0 and
// out-of-range victims degrade to free running.
func NewStutter(procs, victim, pause int) *Stutter {
	s := &Stutter{procs: procs, victim: victim, pause: pause, done: make(map[int]bool)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Next implements Scheduler.
func (s *Stutter) Next(p int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p != s.victim {
		s.credit++
		s.cond.Broadcast()
		return true
	}
	// The victim waits for its quota of other-process steps, but never
	// beyond the point where all other processes are done: wait-freedom is
	// about slow peers, not dead ones, and the Done contract above
	// guarantees the wake-up.
	for s.credit < s.pause && !s.othersDoneLocked() {
		s.cond.Wait()
	}
	s.credit = 0
	return true
}

// Done implements Scheduler.
func (s *Stutter) Done(p int) {
	s.mu.Lock()
	s.done[p] = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// othersDoneLocked reports whether every process but the victim is done.
func (s *Stutter) othersDoneLocked() bool {
	n := 0
	for p, d := range s.done {
		if d && p != s.victim {
			n++
		}
	}
	return n >= s.procs-1
}

// Token serializes all processes into one global order chosen pseudo-
// randomly from a seed: at each point, one waiting live process is picked
// uniformly and allowed one step. Given deterministic programs and
// deterministic objects, the whole execution is a reproducible function of
// the seed. Token also supports crash injection.
type Token struct {
	mu      sync.Mutex
	cond    *sync.Cond
	rng     *rand.Rand
	waiting map[int]chan bool
	done    map[int]bool
	crashAt map[int]int
	steps   map[int]int
	procs   int
	stopped bool
}

var _ Scheduler = (*Token)(nil)

// NewToken returns a Token scheduler over procs processes with the given
// seed. crashAt (may be nil) crashes process p after crashAt[p] steps.
func NewToken(procs int, seed int64, crashAt map[int]int) *Token {
	t := &Token{
		rng:     rand.New(rand.NewSource(seed)),
		waiting: make(map[int]chan bool),
		done:    make(map[int]bool),
		crashAt: make(map[int]int),
		steps:   make(map[int]int),
		procs:   procs,
	}
	for p, n := range crashAt {
		t.crashAt[p] = n
	}
	t.cond = sync.NewCond(&t.mu)
	go t.dispatch()
	return t
}

// Next implements Scheduler.
func (t *Token) Next(p int) bool {
	t.mu.Lock()
	if t.stopped {
		// The dispatcher has exited (or is about to): nothing would ever
		// answer the grant channel.
		t.mu.Unlock()
		return false
	}
	if limit, crashes := t.crashAt[p]; crashes && t.steps[p] >= limit {
		t.mu.Unlock()
		return false
	}
	grant := make(chan bool, 1)
	t.waiting[p] = grant
	t.cond.Broadcast()
	t.mu.Unlock()
	return <-grant
}

// Done implements Scheduler.
func (t *Token) Done(p int) {
	t.mu.Lock()
	t.done[p] = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Stop shuts the dispatcher down; pending and later Next calls are
// released as crashes. Call it after the run completes.
func (t *Token) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// dispatch grants one waiting process at a time, chosen at random, until
// every process is done or the scheduler is stopped.
func (t *Token) dispatch() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.stopped {
			for p, grant := range t.waiting {
				delete(t.waiting, p)
				grant <- false
			}
			return
		}
		if len(t.done) == t.procs {
			return
		}
		if len(t.waiting)+len(t.done) < t.procs {
			// Wait until every live process has parked at its next step;
			// only then is the random choice a deterministic function of
			// the seed (processes between steps do only local work and
			// will park or finish).
			t.cond.Wait()
			continue
		}
		candidates := make([]int, 0, len(t.waiting))
		for p := range t.waiting {
			candidates = append(candidates, p)
		}
		sort.Ints(candidates)
		p := candidates[t.rng.Intn(len(candidates))]
		grant := t.waiting[p]
		delete(t.waiting, p)
		t.steps[p]++
		grant <- true
	}
}
