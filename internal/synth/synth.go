// Package synth performs bounded protocol synthesis: given a fixed set of
// shared objects (and NO registers unless they are passed as objects), it
// searches the space of ALL deterministic 2-process protocols in which
// each process performs at most Depth object accesses, for one that solves
// binary consensus — or exhaustively establishes that none exists within
// the bound.
//
// This makes the differences between Jayanti's hierarchies computational
// facts rather than definitions. For example:
//
//   - h_1(test-and-set) = 1: synthesis over ONE test-and-set object proves
//     no bounded protocol exists (the loser learns it lost but can never
//     learn the winner's proposal), while
//   - h_1^r(test-and-set) = 2: adding two SRSW bits to the object set
//     makes synthesis find the classic announce/elect/adopt protocol, and
//   - h_m(test-and-set) = 2: the Theorem 5 pipeline (package core) builds
//     the register-free many-object protocol.
//
// A protocol here is a strategy: a function from (process, proposal,
// observation sequence) to the next action — an invocation on some object,
// or a decision. The searcher explores the AND-OR game between the
// protocol designer (choosing actions at unassigned observation points)
// and the adversary scheduler (choosing interleavings and nondeterministic
// resolutions), backtracking on agreement or validity violations.
package synth

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// Errors reported by SearchContext.
var (
	// ErrBudget: the assignment budget was exhausted before the search
	// completed; the verdict is unknown.
	ErrBudget = errors.New("synth: search budget exhausted")
	// ErrNoProtocol: the search space is exhausted and no protocol exists
	// within the depth bound.
	ErrNoProtocol = errors.New("synth: no protocol exists within the bound")
)

// Object is one shared object available to the synthesized protocol.
// PortOf assigns each process its port (nil means process p uses port
// p+1). Port-aware objects such as SRSW bits prune the search sharply:
// actions illegal on a process's port die immediately.
type Object struct {
	Name   string
	Spec   *types.Spec
	Init   types.State
	PortOf []int
}

// Port returns process p's port on the object.
func (o Object) Port(p int) int {
	if o.PortOf == nil {
		return p + 1
	}
	return o.PortOf[p]
}

// Options configures a search.
type Options struct {
	// Depth is the maximum number of object accesses per process.
	Depth int
	// Symmetric shares one strategy between the two processes. Symmetric
	// search is faster; asymmetric search (the default) is required for a
	// conclusive negative verdict.
	Symmetric bool
	// Relabel, if non-nil, maps each process's VIRTUAL object indices to
	// physical ones: an action on object o by process p touches physical
	// object Relabel[p][o]. Combined with Symmetric, this expresses
	// role-symmetric protocols ("write MY bit, read the OTHER's bit") with
	// one strategy — the classic symmetry reduction that makes positive
	// searches over announce-style object sets tractable.
	Relabel *[2][]int
	// Budget bounds the number of action assignments tried (0 =
	// DefaultBudget).
	Budget int64
}

// DefaultDepth is the access bound per process that the synthesize
// command and the daemon search when the caller names none.
const DefaultDepth = 3

// DefaultBudget is the assignment budget of a search whose Options.Budget
// is 0.
const DefaultBudget int64 = 1e7

// phys resolves process p's virtual object index to a physical one.
func (o Options) phys(p, obj int) int {
	if o.Relabel == nil {
		return obj
	}
	return o.Relabel[p][obj]
}

// Action is one strategy decision: either invoke Inv on object Obj, or
// decide Value.
type Action struct {
	Decide bool
	Value  int
	Obj    int
	Inv    types.Invocation
}

// String renders the action.
func (a Action) String() string {
	if a.Decide {
		return fmt.Sprintf("decide %d", a.Value)
	}
	return fmt.Sprintf("obj%d.%v", a.Obj, a.Inv)
}

// Key identifies a strategy point: what a process knows.
type Key struct {
	Proc     int // always 0 under Symmetric
	Proposal int
	Obs      string
}

// Strategy is a (partial) protocol: the searcher returns a total-enough
// strategy covering every reachable observation point.
type Strategy map[Key]Action

// Stats reports search effort.
type Stats struct {
	Assignments int64 `json:"assignments"`
	Configs     int64 `json:"configs"`
}

// ctxCheckEvery is the configuration period at which the searcher polls
// its context; cancellation latency is bounded by the time to expand this
// many game configurations.
const ctxCheckEvery = 1024

// SearchContext looks for a 2-process binary consensus protocol over the
// given objects. On success it returns the strategy; if the bounded space
// is exhausted it returns ErrNoProtocol; if the budget runs out,
// ErrBudget. Cancellation or deadline expiry aborts the search within
// ctxCheckEvery configurations and returns ctx.Err() together with the
// effort spent so far.
func SearchContext(ctx context.Context, objects []Object, opts Options) (Strategy, *Stats, error) {
	if opts.Depth < 1 {
		return nil, nil, fmt.Errorf("synth: depth must be positive")
	}
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	s := &searcher{
		ctx:      ctx,
		objects:  objects,
		opts:     opts,
		strategy: make(Strategy),
		stats:    &Stats{},
	}
	root := cfg{}
	root.objs = make([]types.State, len(objects))
	for i := range objects {
		root.objs[i] = objects[i].Init
	}
	// All four proposal-vector roots must verify under ONE strategy.
	// Mixed-proposal roots go first: they constrain agreement across
	// differing proposals, which prunes wrong strategies soonest.
	pendings := make([]cfg, 0, 4)
	for _, mask := range []int{1, 2, 0, 3} {
		c := root
		c.objs = append([]types.State(nil), root.objs...)
		c.procs[0] = pstate{Prop: mask & 1}
		c.procs[1] = pstate{Prop: (mask >> 1) & 1}
		pendings = append(pendings, c)
	}
	ok, _, err := s.solve(pendings)
	if err != nil {
		return nil, s.stats, err
	}
	if !ok {
		return nil, s.stats, ErrNoProtocol
	}
	return s.strategy, s.stats, nil
}

// pstate is one process's knowledge: its proposal, its observation string,
// and its decision once made.
type pstate struct {
	Prop    int
	Obs     string
	Steps   int
	Done    bool
	Decided int
}

// cfg is a configuration of the synthesis game. deps records the strategy
// keys consulted along the path to this configuration — the dependency set
// for conflict-directed backjumping.
type cfg struct {
	objs  []types.State
	procs [2]pstate
	deps  []Key
}

// conflict is a set of strategy keys a failure depended on.
type conflict map[Key]struct{}

func conflictOf(keys []Key) conflict {
	c := make(conflict, len(keys))
	for _, k := range keys {
		c[k] = struct{}{}
	}
	return c
}

func (c conflict) merge(o conflict) conflict {
	if c == nil {
		c = make(conflict, len(o))
	}
	for k := range o {
		c[k] = struct{}{}
	}
	return c
}

type searcher struct {
	ctx      context.Context
	objects  []Object
	opts     Options
	strategy Strategy
	stats    *Stats
}

func (s *searcher) key(p int, ps pstate) Key {
	proc := p
	if s.opts.Symmetric {
		proc = 0
	}
	return Key{Proc: proc, Proposal: ps.Prop, Obs: ps.Obs}
}

// virtualCount returns the size of the strategy's object index space.
func (s *searcher) virtualCount() int {
	if s.opts.Relabel != nil {
		return len(s.opts.Relabel[0])
	}
	return len(s.objects)
}

// candidates enumerates the actions available at an observation point.
// Decisions come last so the searcher prefers gathering information first
// (found protocols read better; completeness is unaffected). Under
// relabeling, alphabets are taken from process 0's physical object; the
// caller must relabel between objects of identical specs.
func (s *searcher) candidates(ps pstate) []Action {
	var out []Action
	if ps.Steps < s.opts.Depth {
		for obj := 0; obj < s.virtualCount(); obj++ {
			spec := s.objects[s.opts.phys(0, obj)].Spec
			for _, inv := range spec.Alphabet {
				out = append(out, Action{Obj: obj, Inv: inv})
			}
		}
	}
	out = append(out, Action{Decide: true, Value: 0}, Action{Decide: true, Value: 1})
	return out
}

// solve processes the AND-list of configurations that must all verify
// under the current strategy, extending the strategy at unassigned points.
// On failure it returns the conflict set: the strategy keys the failure
// depended on, which lets choice points whose key is not in the set
// backjump past their remaining candidates (conflict-directed
// backjumping).
func (s *searcher) solve(pending []cfg) (bool, conflict, error) {
	if len(pending) == 0 {
		return true, nil, nil
	}
	s.stats.Configs++
	if s.stats.Configs%ctxCheckEvery == 0 {
		if err := s.ctx.Err(); err != nil {
			return false, nil, err
		}
	}
	c := pending[0]
	rest := pending[1:]

	if c.procs[0].Done && c.procs[1].Done {
		if c.procs[0].Decided != c.procs[1].Decided {
			return false, conflictOf(c.deps), nil // agreement violated
		}
		d := c.procs[0].Decided
		if d != c.procs[0].Prop && d != c.procs[1].Prop {
			return false, conflictOf(c.deps), nil // validity violated
		}
		return s.solve(rest)
	}

	// Build the AND-children: one step per live process. If some live
	// process's strategy point is unassigned, branch on it and retry.
	var children []cfg
	for p := 0; p < 2; p++ {
		if c.procs[p].Done {
			continue
		}
		key := s.key(p, c.procs[p])
		act, assigned := s.strategy[key]
		if !assigned {
			total := make(conflict)
			for _, cand := range s.candidates(c.procs[p]) {
				s.stats.Assignments++
				if s.stats.Assignments > s.opts.Budget {
					return false, nil, fmt.Errorf("%w: %d assignments", ErrBudget, s.stats.Assignments)
				}
				s.strategy[key] = cand
				ok, conf, err := s.solve(pending)
				if err != nil {
					return false, nil, err
				}
				if ok {
					return true, nil, nil
				}
				delete(s.strategy, key)
				if _, depends := conf[key]; !depends {
					// The failure does not involve this choice: no other
					// candidate can help — backjump with the same conflict.
					return false, conf, nil
				}
				delete(conf, key)
				total = total.merge(conf)
			}
			return false, total, nil
		}
		kids, ok := s.step(c, p, act, key)
		if !ok {
			// Illegal invocation: dead regardless of deeper choices, but
			// dependent on the path and this key.
			conf := conflictOf(c.deps)
			conf[key] = struct{}{}
			return false, conf, nil
		}
		children = append(children, kids...)
	}
	return s.solve(append(children, rest...))
}

// step applies action act for process p (consulted at strategy point key),
// returning the child configurations (several under nondeterministic
// objects), each carrying key in its dependency set.
func (s *searcher) step(c cfg, p int, act Action, key Key) ([]cfg, bool) {
	if act.Decide {
		child := c.clone(key)
		child.procs[p].Done = true
		child.procs[p].Decided = act.Value
		return []cfg{child}, true
	}
	obj := s.opts.phys(p, act.Obj)
	decl := s.objects[obj]
	ts := decl.Spec.Step(c.objs[obj], decl.Port(p), act.Inv)
	if len(ts) == 0 {
		return nil, false
	}
	out := make([]cfg, 0, len(ts))
	for _, t := range ts {
		child := c.clone(key)
		child.objs[obj] = t.Next
		child.procs[p].Obs += encodeResp(t.Resp)
		child.procs[p].Steps++
		out = append(out, child)
	}
	return out, true
}

// clone copies the configuration and appends key to its dependency set.
func (c cfg) clone(key Key) cfg {
	d := c
	d.objs = append([]types.State(nil), c.objs...)
	d.deps = append(append([]Key(nil), c.deps...), key)
	return d
}

func encodeResp(r types.Response) string {
	return fmt.Sprintf("%s:%d;", r.Label, r.Val)
}

// Format renders a strategy sorted by key for reports and tests.
func (st Strategy) Format(objects []Object) string {
	keys := make([]Key, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Proposal != b.Proposal {
			return a.Proposal < b.Proposal
		}
		return a.Obs < b.Obs
	})
	var sb strings.Builder
	for _, k := range keys {
		act := st[k]
		label := act.String()
		if !act.Decide && act.Obj < len(objects) {
			label = fmt.Sprintf("%s.%v", objects[act.Obj].Name, act.Inv)
		}
		fmt.Fprintf(&sb, "p%d prop=%d obs=%q -> %s\n", k.Proc, k.Proposal, k.Obs, label)
	}
	return sb.String()
}

// Implementation converts a synthesized strategy into a runnable
// implementation (package program), so the explorer can independently
// re-verify it. opts must be the Options the strategy was found with
// (Symmetric and Relabel affect interpretation).
func Implementation(name string, objects []Object, st Strategy, opts Options) *program.Implementation {
	symmetric := opts.Symmetric
	decls := make([]program.ObjectDecl, len(objects))
	for i, o := range objects {
		ports := o.PortOf
		if ports == nil {
			ports = program.AllPorts(2)
		}
		decls[i] = program.ObjectDecl{
			Name:   o.Name,
			Spec:   o.Spec,
			Init:   o.Init,
			PortOf: ports,
		}
	}
	// runState tracks the observation plus whether an invocation is in
	// flight (so the next response must be folded in).
	type runState struct {
		Prop    int
		Obs     string
		Pending bool
	}
	machine := func(p int) program.Machine {
		return program.FuncMachine{
			StartFn: func(inv types.Invocation, _ any) any {
				return runState{Prop: inv.A}
			},
			NextFn: func(state any, resp types.Response) (program.Action, any) {
				ps, ok := state.(runState)
				if !ok {
					panic("synth: machine driven with foreign state")
				}
				if ps.Pending {
					ps.Obs += encodeResp(resp)
					ps.Pending = false
				}
				proc := p
				if symmetric {
					proc = 0
				}
				act, assigned := st[Key{Proc: proc, Proposal: ps.Prop, Obs: ps.Obs}]
				if !assigned {
					// Unreachable for strategies returned by SearchContext.
					return program.ReturnAction(types.ValOf(ps.Prop), nil), ps
				}
				if act.Decide {
					return program.ReturnAction(types.ValOf(act.Value), nil), ps
				}
				ps.Pending = true
				return program.InvokeAction(opts.phys(p, act.Obj), act.Inv), ps
			},
		}
	}
	return &program.Implementation{
		Name:     name,
		Target:   types.Consensus(2),
		Procs:    2,
		Objects:  decls,
		Machines: []program.Machine{machine(0), machine(1)},
	}
}
