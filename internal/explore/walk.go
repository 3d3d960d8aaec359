package explore

import (
	"fmt"
	"math/rand"

	"waitfree/internal/hist"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// Schedule is the adversary of one Walk: a pure function of its fields,
// so equal schedules walk equal paths.
type Schedule struct {
	// Seed drives every choice: at each step the next process is picked
	// uniformly among the enabled ones (in index order), and a
	// nondeterministic object's transition uniformly among those allowed.
	Seed int64
	// CrashAfter[p] crashes process p once it has made that many object
	// accesses (0: before its first). Processes absent from the map never
	// crash; a process that finishes its script within the limit does not
	// crash either.
	CrashAfter map[int]int
	// Recoveries[p] lets a crashed p re-enter at once from its recovery
	// section, up to this many times (recoverProc defines what survives).
	// Each recovery resets p's access count, so p crashes again after
	// another CrashAfter[p] accesses; once the budget is spent the crash
	// is permanent.
	Recoveries map[int]int
	// MaxDepth bounds the walk's object accesses; 0 means DefaultMaxDepth.
	MaxDepth int
}

// Walked is the leaf one Walk reached, owned by the caller. Each field but
// Mems is the Leaf method of its name, rendered once when the walk ends,
// except that Crashed and Recoveries always have one entry per process.
type Walked struct {
	Responses  [][]types.Response
	Depth      int
	History    hist.History
	Schedule   []StepRecord
	Crashed    []bool
	Recoveries []int
	// Mems[p] is process p's persistent memory at the end of the walk (at
	// its last crash, for a process that stayed down).
	Mems []any
}

// Walk follows one root-to-leaf path of the execution tree of im under
// scripts, choosing every edge from s. It steps through the explorer's own
// edge code — the transition and step caches, access, crashProc and
// recoverProc — so every leaf it reaches is a leaf of the tree RunContext
// explores with the matching fault model; Walk samples instances too large
// to enumerate.
// A walk longer than MaxDepth accesses is a *Violation of kind
// KindDepthExceeded; a panic in a type spec or machine is a
// *faults.PanicError.
func Walk(im *program.Implementation, scripts [][]types.Invocation, s Schedule) (*Walked, error) {
	w, _, err := walk(im, scripts, s)
	return w, err
}

// walk is Walk, also returning the explorer it walked with.
func walk(im *program.Implementation, scripts [][]types.Invocation, s Schedule) (w *Walked, e *explorer, err error) {
	defer recoverPanic(&e, &err)
	if e, err = initExplorer(im, scripts, Options{RecordHistory: true, MaxDepth: s.MaxDepth}); err != nil {
		return nil, nil, err
	}
	// A walk has no subtrees to share, so its processes step in scratch
	// slots rather than the intern table: interning would cost a segment
	// encoding and a table entry per step that cache hits rarely repay.
	e.scratch = make([]procState, im.Procs)
	c, err := e.newRoot()
	if err != nil {
		return nil, e, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	accesses := make([]int, im.Procs)
	// crashDue applies p's due crashes and recoveries; a recovery may be
	// due to crash again at once (CrashAfter 0).
	crashDue := func(p int) error {
		for {
			limit, ok := s.CrashAfter[p]
			if ps := e.proc(c.procs[p]); !ok || ps.Done || ps.Crashed || accesses[p] < limit {
				return nil
			}
			e.curConfig, e.curProc = c, p
			e.crashProc(c, p)
			if e.proc(c.procs[p]).Recoveries >= s.Recoveries[p] {
				return nil
			}
			if err := e.recoverProc(c, p); err != nil {
				return err
			}
			accesses[p] = 0
		}
	}
	for p := range c.procs {
		if err := crashDue(p); err != nil {
			return nil, e, err
		}
	}
	live := make([]int, 0, im.Procs)
	for depth := 0; ; depth++ {
		live = live[:0]
		for p, id := range c.procs {
			if ps := e.proc(id); !ps.Done && !ps.Crashed {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			return e.walked(c, depth), e, nil
		}
		if depth >= e.opts.MaxDepth {
			return nil, e, &Violation{Kind: KindDepthExceeded,
				Detail: fmt.Sprintf("execution reached %d object accesses", depth), Schedule: e.scheduleView()}
		}
		p := live[rng.Intn(len(live))]
		e.breadcrumb(c, p, depth)
		obj := e.proc(c.procs[p]).Pending.Obj
		inv := e.pendingInv(c, p)
		cts, err := e.applyCached(c, p, obj, inv)
		if err != nil {
			return nil, e, fmt.Errorf("process %d at depth %d: %w", p, depth, err)
		}
		t := cts[0]
		if len(cts) > 1 {
			t = cts[rng.Intn(len(cts))]
		}
		if err := e.access(c, p, obj, inv, t, false); err != nil {
			return nil, e, err
		}
		accesses[p]++
		if err := crashDue(p); err != nil {
			return nil, e, err
		}
	}
}

// walked renders the finished walk through the Leaf view of its path.
func (e *explorer) walked(c *config, depth int) *Walked {
	l := Leaf{Depth: depth, e: e, c: c}
	w := &Walked{
		Responses: l.Responses(),
		Depth:     depth,
		History:   l.History(),
		Schedule:  l.Schedule(),
		Mems:      make([]any, len(c.procs)),
	}
	w.Crashed, w.Recoveries = l.fates()
	for p, id := range c.procs {
		w.Mems[p] = e.proc(id).Mem
	}
	return w
}
