// Package explore enumerates the execution trees of Section 4.2 of Bazzi,
// Neiger, and Peterson (PODC 1994).
//
// Each node of a tree is a configuration of an implementation: the states
// of the implementing objects plus the control state of every process's
// program. A configuration's children are obtained by letting one process
// execute one low-level operation (one object access); nondeterministic
// objects additionally branch over their allowed transitions. Leaves are
// configurations where every process has completed its script of target
// operations.
//
// The explorer makes the paper's König's-lemma argument effective: for a
// deterministic, wait-free implementation the tree is finite, and the
// explorer computes its exact depth D and, more finely, per-object and
// per-operation access bounds along any root-to-leaf path — the r_b and
// w_b of Section 4.2. A cycle in the configuration graph (detected under
// memoization) or a path exceeding the step budget is evidence against
// wait-freedom and is reported as a violation together with the schedule
// that exhibits it.
package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"waitfree/internal/faults"
	"waitfree/internal/fsx"
	"waitfree/internal/hist"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// DefaultMaxDepth is the per-path step budget when Options.MaxDepth is 0.
const DefaultMaxDepth = 4096

// Options configures a RunContext or ConsensusKContext exploration.
type Options struct {
	// MaxDepth is the per-path object-access budget; exceeding it is
	// reported as a wait-freedom violation. 0 means DefaultMaxDepth.
	MaxDepth int
	// Memoize deduplicates configurations reached by several paths. The
	// paper's trees replicate such configurations; memoizing changes cost,
	// never verdicts. Memoization also enables exact cycle detection. It
	// only adds the per-tree memo table: every run, memoized or not, walks
	// its edges through the same interned configurations and transition
	// and step caches. Incompatible with RecordHistory.
	Memoize bool
	// RecordHistory lets Leaf.History render the complete concurrent
	// history of target operations at each leaf, for linearizability
	// checking. The history is rendered from the explorer's path, like the
	// schedule; the run otherwise steps exactly like any other.
	RecordHistory bool
	// OnLeaf, if set, is called at every leaf the DFS reaches. Under
	// Memoize that is not every execution: a memo hit returns its stored
	// summary and skips its subtree, so OnLeaf runs only at leaves reached
	// without passing a memo hit. A check that must see every execution
	// must not memoize. Returning an error aborts
	// exploration and surfaces as a KindLeafReject violation. The *Leaf
	// is a view of the explorer's current path, valid only during the
	// call; its methods render what the callback reads into values the
	// callback owns.
	OnLeaf func(*Leaf) error
	// Parallelism bounds the number of worker goroutines
	// ConsensusKContext uses to explore independent proposal-vector trees
	// concurrently: 0 means runtime.GOMAXPROCS(0), 1 forces sequential
	// exploration. RunContext itself always explores its single tree
	// sequentially. Every field of the merged ConsensusReport — verdicts,
	// Depth, access bounds, Nodes, Leaves, and MemoHits — is identical at
	// every parallelism level, because each tree has memo contents of its
	// own (a worker's one memo table is emptied before each tree it
	// claims) and trees are merged in proposal-vector order. Parallelism
	// > 1 requires Spec.Step and Machine implementations to be pure
	// functions of their arguments (all in-repo types and machines are).
	Parallelism int
	// Faults enumerates crash faults exhaustively: at every configuration,
	// in addition to every enabled step, the DFS explores the branch where
	// each still-live process crashes (subject to the model's MaxCrashes
	// bound and Mode). Leaves then only require the surviving processes to
	// be done; crashed processes are excluded from per-leaf checks. Under
	// faults.CrashRecovery the DFS additionally explores, at every
	// configuration with a crashed process and remaining MaxRecoveries
	// budget, the branch where that process recovers: volatile state
	// resets, shared objects persist, and the interrupted operation
	// re-runs — including after all live processes have finished, which is
	// where durable-decision violations surface. The zero Model disables
	// fault exploration (the default).
	Faults faults.Model
	// MemoBudget bounds the number of retained memo-table entries per
	// execution tree (0 = unbounded). When a tree's table fills up, the
	// engine reclaims the least-recently-useful cached entries one at a
	// time (second-chance FIFO; configurations currently on the DFS stack
	// never count toward the budget and are never evicted, so cycle
	// detection stays exact). Without MemoSpillDir the run degrades
	// gracefully — evicted entries are forgotten and the run is flagged
	// Degraded in Result, ConsensusReport, and Stats; with MemoSpillDir
	// evicted entries move to disk and nothing is lost. Eviction changes
	// cost, never verdicts, and is deterministic, so reports remain
	// identical at every parallelism level. Requires Memoize.
	MemoBudget int
	// MemoSpillDir, if non-empty, gives budgeted memo tables a disk tier:
	// entries evicted under MemoBudget are written to a checksummed spill
	// file in this directory (one temp file per execution tree, deleted at
	// tree completion) and served back on later lookups. A budgeted run
	// with a working spill tier scores exactly the memo hits of an
	// unbounded run and never sets Degraded; if the spill tier breaks
	// (I/O error, corrupt record), the run degrades exactly as it would
	// without one. Requires MemoBudget.
	MemoSpillDir string
	// FS is the filesystem the spill tier performs its I/O through (nil =
	// the real one). Tests pass an *fsx.FaultFS to script storage faults
	// and assert the degradation ladder; it never affects verdicts — a
	// failing FS only costs memo hits and sets Degraded honestly.
	FS fsx.FS
	// ResumeFrom, if set, resumes a consensus exploration from a Checkpoint
	// taken by a cancelled run: proposal-vector trees recorded in the
	// checkpoint are merged from their stored results instead of being
	// re-explored. The engine shares the checkpoint's slices and maps
	// without copying or modifying them, so the caller must not modify it
	// while the run is in flight. Only ConsensusKContext honors it;
	// RunContext rejects it (single trees have no frontier to resume).
	ResumeFrom *Checkpoint
	// Symmetry selects process-permutation symmetry reduction for
	// ConsensusKContext: proposal vectors that are permutations of one
	// another generate isomorphic execution trees when the implementation
	// is process-symmetric, so only one representative tree per orbit is
	// explored and the other members replay its outcome. Symmetry is
	// inferred, never declared: the implementation's tabulation must show
	// identical machines over oblivious, fully ported objects (see
	// symmetry.go). The merged ConsensusReport is byte-identical to an
	// unreduced run — verdicts, Depth, access bounds, Nodes, Leaves,
	// MemoHits — while the engine Stats, which count work actually
	// performed, shrink by up to n!. SymmetryOff (the zero value) explores
	// every tree; SymmetryAuto reduces when the implementation qualifies
	// and silently falls back otherwise; SymmetryRequire errors with
	// ErrNotSymmetric instead of falling back. RunContext ignores Symmetry
	// (a single tree has no orbit), and MemoBudget disables reduction
	// (eviction timing is traversal-order dependent; see planOrbits).
	Symmetry SymmetryMode
	// MaxNodes is a soft budget on explored configurations for the
	// consensus engines: once the engine counters pass it, workers stop
	// claiming work, unwind, and ConsensusKContext returns a
	// ConsensusReport with Partial set and a Coverage block describing how
	// far the run got — with a nil error, consistent with the Degraded
	// memo-budget contract. The budget is soft: workers notice it at their
	// next counter flush, so the overshoot is bounded by
	// workers*flushEvery. 0 means unbounded. RunContext ignores MaxNodes (a
	// single tree has no partial-merge frontier).
	MaxNodes int64
	// StallAfter arms the stall watchdog for the consensus engines: the
	// run's supervisor goroutine flags any worker that makes no node
	// progress for this long, stops the run, and surfaces a *StallError
	// carrying the worker, its tree, and the config key of its last flushed
	// configuration — turning a wedged Spec.Step or Machine from a silent
	// hang into a diagnosable report. 0 disables the watchdog. RunContext ignores
	// StallAfter.
	StallAfter time.Duration
	// CheckpointEvery autosaves the consensus frontier: every interval,
	// the supervisor snapshots a Checkpoint of the trees finished so far
	// and hands it to OnCheckpoint, so an OOM-kill or power loss costs at
	// most one interval of work. Autosave needs both fields: setting one
	// without the other is ErrBadOptions. RunContext ignores both.
	CheckpointEvery time.Duration
	// OnCheckpoint receives autosave snapshots (see CheckpointEvery). It
	// is called from the run's one supervisor goroutine, which also calls
	// OnProgress, so the two hooks never run concurrently and a slow
	// OnCheckpoint delays the next progress snapshot. The Checkpoint it
	// receives is freshly built, never aliased by the engine afterwards.
	// Callers typically persist it with the durable package.
	OnCheckpoint func(*Checkpoint)
	// OnProgress, if set, receives engine Stats snapshots every
	// ProgressInterval while RunContext / ConsensusKContext execute, plus
	// one final snapshot when the engine stops (normally, on violation, or
	// on cancellation). Snapshots are observational (see Stats); they
	// never influence the report. The run's one supervisor goroutine makes
	// the periodic calls (the same goroutine that calls OnCheckpoint, so a
	// slow OnCheckpoint delays the next snapshot), and the caller's
	// goroutine makes the final one after joining it: OnProgress is never
	// called concurrently with itself or with OnCheckpoint.
	OnProgress func(Stats)
	// ProgressInterval is the OnProgress tick; 0 means
	// DefaultProgressInterval. Ignored when OnProgress is nil.
	ProgressInterval time.Duration
}

// Validate checks the options for internal consistency. It returns an
// error wrapping ErrBadOptions for combinations that previously produced
// undefined behavior: Memoize with RecordHistory (memoized paths cannot
// carry complete histories), a negative MaxDepth, a negative Parallelism,
// or a negative ProgressInterval. Every exploration entry point validates
// its options up front, so callers only need Validate to fail early.
func (o Options) Validate() error {
	if o.Memoize && o.RecordHistory {
		return fmt.Errorf("%w: Memoize and RecordHistory are mutually exclusive", ErrBadOptions)
	}
	if o.MaxDepth < 0 {
		return fmt.Errorf("%w: negative MaxDepth %d", ErrBadOptions, o.MaxDepth)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: negative Parallelism %d", ErrBadOptions, o.Parallelism)
	}
	if o.ProgressInterval < 0 {
		return fmt.Errorf("%w: negative ProgressInterval %v", ErrBadOptions, o.ProgressInterval)
	}
	if err := o.Faults.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	if o.MemoBudget < 0 {
		return fmt.Errorf("%w: negative MemoBudget %d", ErrBadOptions, o.MemoBudget)
	}
	if o.MemoBudget > 0 && !o.Memoize {
		return fmt.Errorf("%w: MemoBudget requires Memoize", ErrBadOptions)
	}
	if o.MemoSpillDir != "" && o.MemoBudget == 0 {
		return fmt.Errorf("%w: MemoSpillDir requires MemoBudget", ErrBadOptions)
	}
	if o.Symmetry < SymmetryOff || o.Symmetry > SymmetryRequire {
		return fmt.Errorf("%w: unknown Symmetry mode %d", ErrBadOptions, int(o.Symmetry))
	}
	if o.MaxNodes < 0 {
		return fmt.Errorf("%w: negative MaxNodes %d", ErrBadOptions, o.MaxNodes)
	}
	if o.StallAfter < 0 {
		return fmt.Errorf("%w: negative StallAfter %v", ErrBadOptions, o.StallAfter)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("%w: negative CheckpointEvery %v", ErrBadOptions, o.CheckpointEvery)
	}
	if (o.CheckpointEvery > 0) != (o.OnCheckpoint != nil) {
		return fmt.Errorf("%w: CheckpointEvery and OnCheckpoint must be set together", ErrBadOptions)
	}
	return nil
}

// Leaf is one completed execution, as a view of the explorer's current
// path and configuration: each method renders its part of the execution
// only when called, into a fresh value the caller owns. The view itself is
// borrowed, valid only during the OnLeaf call.
type Leaf struct {
	// Depth is the number of object accesses along this execution.
	Depth int

	e *explorer
	c *config
}

// Responses returns, for each process p, the responses of p's target
// operations along this execution's full path, in order (memoized runs
// included: a leaf is only reached by walking its whole path).
func (l *Leaf) Responses() [][]types.Response {
	out := make([][]types.Response, len(l.c.procs))
	for p := range out {
		ids := l.e.pathResps(p)
		out[p] = make([]types.Response, len(ids))
		for i, id := range ids {
			out[p][i] = l.e.resps.vals[id]
		}
	}
	return out
}

// Schedule returns the access sequence of this execution, including its
// CRASH and RECOVER records.
func (l *Leaf) Schedule() []StepRecord { return l.e.scheduleView() }

// Crashed returns, for each process p, whether p crashed along this
// execution and never came back; nil when no process is down at the leaf
// (always, unless Options.Faults is enabled).
func (l *Leaf) Crashed() []bool {
	if crashed, _ := l.fates(); slices.Contains(crashed, true) {
		return crashed
	}
	return nil
}

// Recoveries returns, for each process p, the number of times p crashed
// and recovered along this execution; nil unless some process recovered
// (crash-recovery exploration only).
func (l *Leaf) Recoveries() []int {
	if _, recs := l.fates(); slices.ContainsFunc(recs, func(n int) bool { return n > 0 }) {
		return recs
	}
	return nil
}

// fates returns every process's crash flag and recovery count at the leaf.
func (l *Leaf) fates() ([]bool, []int) {
	crashed, recs := make([]bool, len(l.c.procs)), make([]int, len(l.c.procs))
	for p, id := range l.c.procs {
		ps := l.e.proc(id)
		crashed[p], recs[p] = ps.Crashed, ps.Recoveries
	}
	return crashed, recs
}

// StepRecord is one low-level operation of a schedule. A record with Crash
// set is not an object access: it marks the point at which Proc crashed
// (Obj is -1 and Inv/Resp are zero). A record with Recover set marks the
// point at which a crashed Proc re-entered from its recovery section
// (crash-recovery mode; Obj is -1 and Inv/Resp are zero).
type StepRecord struct {
	Proc    int              `json:"proc"`
	Obj     int              `json:"obj"`
	Inv     types.Invocation `json:"inv"`
	Resp    types.Response   `json:"resp"`
	Crash   bool             `json:"crash,omitempty"`
	Recover bool             `json:"recover,omitempty"`
}

// String renders the step as p<proc>:obj<obj>.<inv>-><resp>, or
// p<proc>:CRASH / p<proc>:RECOVER for fault records.
func (s StepRecord) String() string {
	if s.Crash {
		return fmt.Sprintf("p%d:CRASH", s.Proc)
	}
	if s.Recover {
		return fmt.Sprintf("p%d:RECOVER", s.Proc)
	}
	return fmt.Sprintf("p%d:obj%d.%v->%v", s.Proc, s.Obj, s.Inv, s.Resp)
}

// FormatSchedule renders a schedule one step per line.
func FormatSchedule(steps []StepRecord) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, "\n")
}

// ViolationKind classifies semantic findings.
type ViolationKind int

// Violation kinds.
const (
	// KindDepthExceeded: some execution exceeded the step budget.
	KindDepthExceeded ViolationKind = iota + 1
	// KindCycle: the configuration graph has a cycle, so some execution
	// never terminates (the implementation is not wait-free).
	KindCycle
	// KindLeafReject: the OnLeaf callback rejected an execution.
	KindLeafReject
	// KindBlockedBySurvivorStarvation: after one or more crashes, the
	// surviving processes alone cycled or exceeded the step budget — the
	// implementation's survivors do not finish in a bounded number of their
	// own steps, refuting the wait-freedom claim of Section 2.2 directly.
	KindBlockedBySurvivorStarvation
	// KindInvalidAfterCrash: an execution with one or more crashes
	// completed, but the surviving processes' decisions failed the per-leaf
	// check (agreement or validity among survivors).
	KindInvalidAfterCrash
	// KindBlockedByRecoveryDivergence: after one or more recoveries, some
	// execution cycled or exceeded the step budget — a recovered process
	// (or the system it rejoined) can no longer decide in a bounded number
	// of steps, so the implementation is not recoverably wait-free.
	KindBlockedByRecoveryDivergence
	// KindDecisionChangedAfterRecovery: an execution with one or more
	// recoveries completed, but the per-leaf check failed — a process that
	// crashed and re-ran from its recovery section reached a decision
	// inconsistent with the others (or with validity), so decisions are
	// not durable across recovery.
	KindDecisionChangedAfterRecovery
)

func (k ViolationKind) String() string {
	switch k {
	case KindDepthExceeded:
		return "step budget exceeded"
	case KindCycle:
		return "configuration cycle (not wait-free)"
	case KindLeafReject:
		return "execution rejected"
	case KindBlockedBySurvivorStarvation:
		return "blocked by survivor starvation (not wait-free under crashes)"
	case KindInvalidAfterCrash:
		return "invalid execution after crash"
	case KindBlockedByRecoveryDivergence:
		return "recovery divergence (not wait-free under crash-recovery)"
	case KindDecisionChangedAfterRecovery:
		return "decision changed after recovery"
	}
	return "unknown violation"
}

// violationTags are the stable JSON tags of the violation kinds, indexed
// by kind.
var violationTags = [...]string{
	KindDepthExceeded:                "depth-exceeded",
	KindCycle:                        "cycle",
	KindLeafReject:                   "leaf-reject",
	KindBlockedBySurvivorStarvation:  "survivor-starvation",
	KindInvalidAfterCrash:            "invalid-after-crash",
	KindBlockedByRecoveryDivergence:  "recovery-divergence",
	KindDecisionChangedAfterRecovery: "decision-changed-after-recovery",
}

// MarshalJSON renders the kind as a stable string tag rather than a bare
// enum ordinal, so -json output survives reordering of the constants. A
// value outside the declared kinds renders as "unknown".
func (k ViolationKind) MarshalJSON() ([]byte, error) {
	tag := "unknown"
	if k > 0 && int(k) < len(violationTags) {
		tag = violationTags[k]
	}
	return json.Marshal(tag)
}

// UnmarshalJSON parses a tag MarshalJSON emits for a declared kind. Any
// other value — "unknown" included, since it names no kind — is an error,
// so a decoded report never carries a kind its producer did not find.
func (k *ViolationKind) UnmarshalJSON(data []byte) error {
	var tag string
	if err := json.Unmarshal(data, &tag); err != nil {
		return fmt.Errorf("explore: violation kind: %w", err)
	}
	for kind, t := range violationTags {
		if kind > 0 && t == tag {
			*k = ViolationKind(kind)
			return nil
		}
	}
	return fmt.Errorf("explore: unknown violation kind %q", tag)
}

// Violation is a semantic finding: evidence that the implementation is not
// wait-free or that an execution failed the leaf check.
type Violation struct {
	Kind     ViolationKind `json:"kind"`
	Detail   string        `json:"detail"`
	Schedule []StepRecord  `json:"schedule,omitempty"`
}

// Error renders the violation (Violation is usable as an error value).
func (v *Violation) Error() string {
	return fmt.Sprintf("explore: %v: %s\nschedule:\n%s", v.Kind, v.Detail, FormatSchedule(v.Schedule))
}

// Result aggregates a RunContext exploration.
type Result struct {
	Nodes    int64
	Leaves   int64
	MemoHits int64
	// Depth is the maximum number of object accesses along any execution:
	// the paper's bound D for this tree.
	Depth int
	// MaxAccess[o] is the maximum number of accesses to object o along
	// any single execution.
	MaxAccess []int
	// OpAccess[o][op] is the maximum number of op-invocations on object o
	// along any single execution (for registers: the r_b and w_b bounds).
	OpAccess []map[string]int
	// ProcSteps[p] is the maximum number of object accesses process p
	// performs along any single execution: the per-process wait-freedom
	// bound ("a finite number of its own steps").
	ProcSteps []int
	// Violation is non-nil if exploration found a semantic violation; the
	// remaining fields then cover only the explored fragment.
	Violation *Violation
	// Degraded reports that the memo table hit Options.MemoBudget and
	// evicted entries; the verdict and all bounds are still exact, but
	// MemoHits undercounts what an unbounded table would have scored.
	Degraded bool
}

// Structural errors.
var (
	// ErrBadOptions is the sentinel wrapped by every Options validation
	// failure (see Options.Validate).
	ErrBadOptions = errors.New("explore: invalid options")
	ErrBadScripts = errors.New("explore: script shape does not match implementation")
)

// accKey indexes per-object, per-operation access counters. An empty Op
// aggregates all operations on the object; negative Obj values -(p+1)
// carry per-process step counters.
type accKey struct {
	Obj int
	Op  string
}

// procKey returns the accKey carrying process p's step counter.
func procKey(p int) accKey { return accKey{Obj: -(p + 1)} }

// summary is the subtree aggregate computed bottom-up and passed by
// value. Access counters are a dense int32 slice indexed by the explorer's
// access-counter ids (e.acct) rather than a per-node map; a zero counter
// means the key was absent from the old map form, so conversions back to
// the named report maps skip zeroes. The slice is borrowed: a node's counters
// are its DFS level's buffer, and a memo hit's alias the memo's slab, so
// a summary is merged into its parent before the DFS moves on, and the
// memo keeps a copy (settle).
type summary struct {
	height int
	nodes  int64
	leaves int64
	acc    []int32
}

// procState is one process's part of a configuration. All fields are
// comparable values; machine states and memories must be pointer-free.
// Configurations do not hold procStates: they hold the ids the explorer's
// process intern table gives them (intern.go).
type procState struct {
	OpIdx   int
	Done    bool
	Mem     any
	Mst     any
	Pending program.Action
	// Resp is the response of the last completed target operation; it is
	// part of the configuration so that memoization never conflates
	// executions with different outcomes.
	Resp types.Response
	// Crashed marks a process stopped by fault exploration. It is part of
	// the configuration (and its memo key): per-leaf checks depend on
	// which processes survived. Under faults.CrashRecovery a crashed
	// process may later recover (Crashed clears, Recoveries increments);
	// under the other modes a crash is permanent.
	Crashed bool
	// Recoveries counts how many times this process has crashed and
	// recovered (crash-recovery mode only; constantly 0 otherwise). It is
	// part of the configuration so that every recovery-budget predicate is
	// derivable from the configuration alone, keeping memoization sound,
	// and so that recovery edges can never close a configuration cycle.
	Recoveries int
	// Stepped records whether the process has performed any object access
	// yet. It is only maintained under faults.CrashBeforeFirstStep (the one
	// mode whose crash placement depends on it), so that other modes'
	// memo tables do not fragment on it.
	Stepped bool
}

// config is one node of an execution tree in the interned layout
// (intern.go): objs[i] is the id of object i's state in the explorer's
// object intern table, procs[p] the id of process p's control state in its
// process intern table (or, in a Walk, the scratch reference ^p). Every
// edge steps a config in place, and both vectors are pointer-free, so the
// DFS's save/restore copies ints. Together they are the configuration's
// memo key (explorer.idKey) — fixed-width for the whole tree — and
// valency's map key. Each component is encoded once per tree, when the intern table
// first sees it, and the id key stands for the concatenation of those
// segments, which keyHex still renders for diagnostics.
type config struct {
	objs  []int32
	procs []int32
}

// RunContext explores all executions of im in which process p performs the
// target invocations scripts[p], in order. It returns the tree's aggregate
// result; semantic findings are reported in Result.Violation, structural
// problems as errors. Cancellation or deadline expiry stops the exploration within flushEvery configurations and returns ctx.Err()
// (context.Canceled or context.DeadlineExceeded). If opts.OnProgress is
// set, engine Stats are published on the configured tick and once more
// when the run stops, so a cancelled run still surfaces its partial
// totals.
func RunContext(ctx context.Context, im *program.Implementation, scripts [][]types.Invocation, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.ResumeFrom != nil {
		return nil, fmt.Errorf("%w: ResumeFrom applies to consensus explorations only", ErrBadOptions)
	}
	ctr := newCounters(1, 1)
	// A single tree has no frontier to autosave and no watchdog: the
	// supervisor only publishes progress.
	sup := startSupervisor(Options{OnProgress: opts.OnProgress, ProgressInterval: opts.ProgressInterval}, ctr, im, 0, nil, nil)
	defer sup.stop()
	res, err := runTree(ctx, new(explorer), im, scripts, opts, ctr, 0)
	ctr.treesDone.Add(1)
	return res, err
}

// runTree explores one execution tree with e, on behalf of worker widx,
// feeding the shared engine counters and honoring ctx. e may have
// explored earlier trees: reset empties it first.
func runTree(ctx context.Context, e *explorer, im *program.Implementation, scripts [][]types.Invocation, opts Options, ctr *counters, widx int) (*Result, error) {
	// Check up front so an already-dead context never starts a tree —
	// the in-DFS poll only fires every flushEvery configurations, which a
	// small tree may never reach.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := e.reset(im, scripts, opts); err != nil {
		return nil, err
	}
	root, err := e.newRoot()
	if err != nil {
		return nil, err
	}
	e.ctx, e.ctr, e.widx = ctx, ctr, widx
	e.initAcct()
	return e.explore(root)
}

// reset validates the shape of a run of im under scripts and makes e
// ready to explore its tree, without a root: newRoot builds it, after
// Walk has given e its scratch slots. It is the one way an explorer is
// set up. RunContext, Valency, Dot and Walk reset a fresh explorer, and
// each ConsensusKContext worker resets its own before every tree.
//
// Every table, cache and buffer e carries over comes out empty but keeps
// the storage the last tree grew (DESIGN.md §13 lists them); everything
// else starts from its zero value. This needs no further argument for
// soundness, because an empty table holds nothing from the last tree:
// ids, cache rows and memo entries are all per tree, and a spill tier
// starts fresh.
func (e *explorer) reset(im *program.Implementation, scripts [][]types.Invocation, opts Options) error {
	if err := im.Validate(); err != nil {
		return err
	}
	if err := opts.Validate(); err != nil {
		return err
	}
	if len(scripts) != im.Procs {
		return fmt.Errorf("%w: %d scripts for %d processes", ErrBadScripts, len(scripts), im.Procs)
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	memo := e.memo
	if !opts.Memoize {
		memo = nil
	} else if memo == nil {
		memo = new(memoTable)
	}
	next := explorer{
		im:      im,
		scripts: scripts,
		opts:    opts,
		curProc: -1,

		memo:        memo,
		keyBuf:      e.keyBuf,
		enc:         e.enc,
		segScratch:  e.segScratch,
		objTab:      e.objTab,
		procTab:     e.procTab,
		procMeta:    e.procMeta[:0],
		invs:        e.invs,
		resps:       e.resps,
		acct:        e.acct,
		procIDs:     e.procIDs[:0],
		objIDs:      e.objIDs[:0],
		levelBufs:   e.levelBufs,
		transRows:   e.transRows,
		transList:   e.transList[:0],
		stepRows:    e.stepRows,
		recoverRows: e.recoverRows,
		stepResps:   e.stepResps[:0],
		root:        e.root,
		path:        e.path[:0],
		respStore:   e.respStore,
		respBuf:     e.respBuf,
		respN:       e.respN,
	}
	*e = next
	if memo != nil {
		memo.reset(opts.MemoBudget, opts.MemoSpillDir, opts.FS)
	}
	clear(e.enc.typeIDs)
	e.objTab.reset()
	e.procTab.reset()
	e.invs.reset()
	e.resps.reset()
	e.acct.reset()
	e.transRows.reset()
	e.stepRows.reset()
	e.recoverRows.reset()
	// A process completes each scripted operation at most once along a
	// path, so its buffer never grows.
	total := 0
	for _, sc := range scripts {
		total += len(sc)
	}
	e.respStore = slices.Grow(e.respStore[:0], total)[:total]
	e.respBuf = slices.Grow(e.respBuf[:0], im.Procs)[:im.Procs]
	e.respN = slices.Grow(e.respN[:0], im.Procs)[:im.Procs]
	buf := e.respStore
	for p, sc := range scripts {
		e.respBuf[p], buf = buf[:len(sc):len(sc)], buf[len(sc):]
	}
	return nil
}

// newRoot builds the root configuration of e.scripts: the initial object
// states, and every process advanced to its first object access. A Walk's
// processes live in e.scratch (intern.go), which Walk sizes before calling
// newRoot; every other run interns them. A history run also records each
// process's root count of completed target ops, which Leaf.History reads.
// The root is e's own, and stays valid until the next reset.
func (e *explorer) newRoot() (*config, error) {
	c := &e.root
	c.objs = slices.Grow(c.objs[:0], len(e.im.Objects))[:len(e.im.Objects)]
	c.procs = slices.Grow(c.procs[:0], e.im.Procs)[:e.im.Procs]
	for i, s := range e.im.InitialStates() {
		c.objs[i] = e.internObj(s)
	}
	if e.opts.RecordHistory {
		e.histProcs = make([]histProc, e.im.Procs)
	}
	for p := range c.procs {
		e.respN[p] = 0
		if e.scratch != nil {
			if err := e.startNextOp(&e.scratch[p], p, types.Response{}); err != nil {
				return nil, err
			}
			c.procs[p] = scratchRef(p)
		} else {
			var ps procState
			if err := e.startNextOp(&ps, p, types.Response{}); err != nil {
				return nil, err
			}
			c.procs[p] = e.internProc(&ps)
		}
		if e.histProcs != nil {
			e.histProcs[p].root = e.respN[p]
		}
	}
	return c, nil
}

// explore runs the DFS from root and aggregates the result; a panic in
// user-supplied code is an error (recoverPanic).
func (e *explorer) explore(root *config) (res *Result, err error) {
	if e.memo != nil {
		defer e.memo.release()
	}
	defer recoverPanic(e, &err)
	im := e.im
	sum, err := e.dfs(root, 0, e.tally(root))
	e.flushCounters(0)
	e.flushTreeCounters()
	res = &Result{
		Nodes:     sum.nodes,
		Leaves:    sum.leaves,
		MemoHits:  e.memoHits,
		Depth:     sum.height,
		Violation: e.violation,
	}
	if e.memo != nil && e.memo.isDegraded() {
		res.Degraded = true
	}
	res.MaxAccess = make([]int, len(im.Objects))
	res.OpAccess = make([]map[string]int, len(im.Objects))
	res.ProcSteps = make([]int, im.Procs)
	for i := range im.Objects {
		res.OpAccess[i] = make(map[string]int)
	}
	for i, v := range sum.acc {
		if v == 0 {
			continue // a zero counter is an absent key
		}
		switch k := e.acct.vals[i]; {
		case k.Obj < 0:
			res.ProcSteps[-(k.Obj + 1)] = int(v)
		case k.Op == "":
			res.MaxAccess[k.Obj] = int(v)
		default:
			res.OpAccess[k.Obj][k.Op] = int(v)
		}
	}
	if err != nil {
		if errors.Is(err, errAbort) {
			return res, nil
		}
		return nil, err
	}
	return res, nil
}

// flushTreeCounters publishes the intern tables' sizes and the memo
// table's eviction telemetry into the shared engine counters once, when
// the tree finishes.
func (e *explorer) flushTreeCounters() {
	e.ctr.internedObjs.Add(int64(e.objTab.nextID))
	e.ctr.internedProcs.Add(int64(e.procTab.nextID))
	if e.memo == nil {
		return
	}
	if n := e.memo.evictions; n != 0 {
		e.ctr.memoEvictions.Add(n)
	}
	if n := e.memo.spilled; n != 0 {
		e.ctr.memoSpilled.Add(n)
	}
	if sp := e.memo.spill; sp != nil {
		if sp.retries != 0 {
			e.ctr.storageRetries.Add(sp.retries)
		}
		if sp.rebuilds != 0 {
			e.ctr.spillRebuilds.Add(sp.rebuilds)
		}
		if sp.broken {
			e.ctr.spillBroken.Store(true)
		}
	}
}

// ctxErr is ctx.Err(), except that a deadline already past counts as
// expired even before its timer has fired. The timer needs a free P to
// run, and workers that allocate little may hold every P for a whole
// preemption period, which would let a short deadline overrun by many
// milliseconds.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// errAbort unwinds the DFS after a violation was recorded.
var errAbort = errors.New("explore: aborted")

type explorer struct {
	im      *program.Implementation
	scripts [][]types.Invocation
	opts    Options

	// Engine instrumentation, set by runTree for the explorers that run
	// the DFS: ctx is polled and local counters are flushed into ctr every
	// flushEvery configurations; widx is this explorer's worker slot.
	ctx  context.Context
	ctr  *counters
	widx int

	pendNodes  int64
	pendLeaves int64
	pendMemo   int64
	sinceFlush int
	// Cache telemetry since the last flush (Stats).
	transHits, transMisses int64
	stepHits, stepMisses   int64

	// memo deduplicates configurations (nil unless Memoize); its gray
	// entries are the current DFS stack (cycle detection).
	// keyBuf is idKey's reused buffer. The table is single-owner: this
	// explorer is its only user, and reset empties it for each tree, so
	// its entries are the current tree's while its storage lasts as long
	// as the explorer (one worker's run).
	memo     *memoTable
	keyBuf   []byte
	memoHits int64

	// The interned layout (intern.go): enc renders component segments,
	// segScratch is the reusable buffer it renders into, and objTab /
	// procTab intern object and process states under their segments,
	// and procMeta[id] is the hot part of process state id. scratch
	// holds a Walk's live process states. invs and resps give
	// invocations and responses the small ids the caches key on.
	enc        keyEncoder
	segScratch []byte
	objTab     keyTable[types.State]
	procTab    keyTable[procInfo]
	procMeta   []procMeta
	scratch    []procState
	invs       idSet[types.Invocation]
	resps      idSet[types.Response]

	// Dense access-counter ids (arena.go): acct interns accKeys, and
	// procIDs / objIDs are the fixed counters' lookup slices.
	acct    idSet[accKey]
	procIDs []int32
	objIDs  []int32

	// Counter buffers (arena.go): levelBufs[l] holds the counters of the
	// node being expanded at DFS level l, the number of nested expansions
	// (level) above it.
	levelBufs [][]int32
	level     int

	// The transition and step caches (arena.go). transRows holds a row
	// per (object-state id, object) of Spec.Apply results indexed by
	// (invocation id, port), with the outcomes in runs of transList;
	// stepRows a row per (process-state id, process) of startNextOp
	// results indexed by (response id, forced bit), and recoverRows one
	// recovery result per (process-state id, process), with completed
	// responses in runs of stepResps. Sound because Spec.Step and
	// machines are documented as deterministic pure functions (the same
	// contract Parallelism > 1 relies on) and the segment encodings behind
	// the ids are injective; together they turn the per-edge user-code
	// calls, their allocations, and the successor states' interning into
	// indexed loads. Both are bounded by per-component state counts —
	// roots of the configuration count — so they stay negligible with or
	// without a memo table, and under MemoBudget.
	transRows   cacheRows[transRef]
	transList   []cachedTrans
	stepRows    cacheRows[procStep]
	recoverRows cacheRows[procStep]
	stepResps   []int32

	// cur is the Leaf every OnLeaf call receives: handing it over
	// allocates nothing, and its methods render this explorer's path.
	cur Leaf
	// root is the tree's root configuration (newRoot), which the DFS
	// steps in place.
	root config

	// Path-local data (push/pop around recursion). path is the current
	// execution in pointer-free form, its only record: scheduleView
	// renders it as StepRecords, and Leaf.History, with responses, as a
	// history. respBuf[p][:respN[p]] are the response ids of the target
	// operations process p completed along the path (pathResps); the
	// buffers hold a whole script, so the path's per-edge bookkeeping
	// stores counts, never a slice; they are cut from respStore.
	// histProcs is set in history runs only (newRoot).
	path      []pathStep
	respStore []int32
	respBuf   [][]int32
	respN     []int
	histProcs []histProc

	// Panic-recovery breadcrumbs: the configuration being expanded, the
	// process being stepped, and its depth. Pointer/int stores only, so the
	// hot path pays nothing; the recovery handler renders them lazily.
	curConfig *config
	curProc   int
	curDepth  int

	violation *Violation
}

// breadcrumb records the configuration, process and depth being stepped
// for panic recovery. A tree steps one config in place, so the pointer is
// stored only when it changes: the per-edge update writes no pointer.
func (e *explorer) breadcrumb(c *config, p, depth int) {
	if e.curConfig != c {
		e.curConfig = c
	}
	e.curProc, e.curDepth = p, depth
}

// pathResps returns the response ids of the target operations process p
// completed along the path, in order.
func (e *explorer) pathResps(p int) []int32 { return e.respBuf[p][:e.respN[p]] }

// pushResp records that process p completed its next target operation
// with response id resp.
func (e *explorer) pushResp(p int, resp int32) {
	e.respBuf[p][e.respN[p]] = resp
	e.respN[p]++
}

// recoverPanic is deferred by every entry point that runs user-supplied
// code (a type spec's transition function or a machine): explore, walk,
// Valency and Dot. It converts a panic into a structured
// *faults.PanicError in *err, naming the stepping process and the
// offending configuration's key, instead of letting it kill the worker
// goroutine and with it the whole process. Until the first breadcrumb the
// tree is still at its root configuration, where no process is stepping.
// Rendering the key may allocate freely: it runs only after a panic.
func recoverPanic(e *explorer, err *error) {
	if r := recover(); r != nil {
		proc, where := -1, "root configuration"
		if e.curConfig != nil {
			proc, where = e.curProc, fmt.Sprintf("depth %d, config key %s", e.curDepth, e.keyHex(e.curConfig))
		}
		*err = faults.NewPanicError("explore", proc, where, r, debug.Stack())
	}
}

// startNextOp advances process p, in state ps, past any number of
// operation boundaries: it feeds resp to the machine and folds zero-access
// returns and starts until the process either has a pending object access
// or is done. Local steps consume no tree edges, matching the paper's
// counting of low-level operations only. ps is a private copy (or a
// Walk's scratch slot), never an interned state. Each completed operation
// records its response (pushResp), where the path's history
// rendering finds it.
func (e *explorer) startNextOp(ps *procState, p int, resp types.Response) error {
	m := e.im.Machines[p]
	if ps.Done {
		return nil
	}
	if ps.Mst == nil {
		if ps.OpIdx >= len(e.scripts[p]) {
			// Empty script: the process is done without taking a step.
			ps.Done = true
			return nil
		}
		// Entry point of the next target operation.
		ps.Mst = m.Start(e.scripts[p][ps.OpIdx], ps.Mem)
	}
	for {
		if ps.Done {
			return nil
		}
		act, next := m.Next(ps.Mst, resp)
		ps.Mst = next
		switch act.Kind {
		case program.KindInvoke:
			if act.Obj < 0 || act.Obj >= len(e.im.Objects) {
				return fmt.Errorf("explore: process %d invoked unknown object %d", p, act.Obj)
			}
			if e.im.Objects[act.Obj].Port(p) == 0 {
				return fmt.Errorf("explore: process %d has no port on object %d (%s)",
					p, act.Obj, e.im.Objects[act.Obj].Name)
			}
			ps.Pending = act
			return nil
		case program.KindReturn:
			e.pushResp(p, e.resps.id(act.Resp))
			ps.Resp = act.Resp
			ps.Mem = act.Mem
			ps.OpIdx++
			if ps.OpIdx >= len(e.scripts[p]) {
				ps.Done = true
				ps.Mst = nil
				ps.Pending = program.Action{}
				return nil
			}
			ps.Mst = m.Start(e.scripts[p][ps.OpIdx], ps.Mem)
			resp = types.Response{}
		default:
			return fmt.Errorf("explore: process %d produced invalid action kind %d", p, act.Kind)
		}
	}
}

// procTally is the census of a configuration's processes that dfs needs:
// how many are crashed, their total recovery count, and how many are
// live and not done (a leaf has none). An edge changes one process, so
// expand derives a child's tally from its parent's (retally) instead of
// dfs scanning every process at every node.
type procTally struct {
	crashes, recoveries, running int
}

// tallyOf is the tally of interned process state id alone.
func (e *explorer) tallyOf(id int32) procTally {
	m := &e.procMeta[id]
	t := procTally{recoveries: int(m.recoveries)}
	if m.flags&metaCrashed != 0 {
		t.crashes = 1
	} else if m.flags&metaDone == 0 {
		t.running = 1
	}
	return t
}

// tally is the tally of c.
func (e *explorer) tally(c *config) procTally {
	var t procTally
	for _, id := range c.procs {
		pt := e.tallyOf(id)
		t.crashes += pt.crashes
		t.recoveries += pt.recoveries
		t.running += pt.running
	}
	return t
}

// retally returns t with one process's state old replaced by new.
func (e *explorer) retally(t procTally, old, new int32) procTally {
	a, b := e.tallyOf(old), e.tallyOf(new)
	return procTally{
		crashes:    t.crashes - a.crashes + b.crashes,
		recoveries: t.recoveries - a.recoveries + b.recoveries,
		running:    t.running - a.running + b.running,
	}
}

// dfs explores the subtree of c, at depth object accesses from the root,
// and returns its summary; t is c's tally.
func (e *explorer) dfs(c *config, depth int, t procTally) (summary, error) {
	sum := summary{nodes: 1}
	e.pendNodes++
	if e.sinceFlush++; e.sinceFlush >= flushEvery {
		e.flushCounters(depth)
		if err := ctxErr(e.ctx); err != nil {
			return sum, err
		}
	}
	// A process counts as finished when it is done or crashed: a leaf of a
	// faulty execution only requires the survivors to have completed.
	allDone := t.running == 0
	crashes, recoveries := t.crashes, t.recoveries
	// Under crash-recovery, a crashed process may re-enter as long as the
	// total recovery budget is not exhausted. MaxRecoveries is only
	// nonzero in that mode (Model.Validate), so the other modes never
	// branch here.
	canRecover := crashes > 0 && recoveries < e.opts.Faults.MaxRecoveries
	if allDone {
		sum.leaves = 1
		e.pendLeaves++
		if err := e.leaf(c, depth, crashes, recoveries); err != nil {
			return sum, err
		}
		if !canRecover {
			return sum, nil
		}
		// A crashed process can still recover: this completed
		// configuration is simultaneously a leaf (checked above — this is
		// exactly where a late recovery can overturn an already-delivered
		// decision) and an interior node whose only children are recovery
		// edges. It is never memoized: recovery strictly increases the
		// total recovery count, so no cycle can pass through it, and every
		// path reaching it must re-run the leaf check, exactly like an
		// ordinary leaf.
		sum.acc = e.levelAcc(e.level)
		err := e.expandNode(c, depth, &sum, t)
		return sum, err
	}
	if depth >= e.opts.MaxDepth {
		switch {
		case recoveries > 0:
			e.violate(KindBlockedByRecoveryDivergence,
				fmt.Sprintf("execution reached %d object accesses after %d recover(y/ies)", depth, recoveries))
		case crashes > 0:
			e.violate(KindBlockedBySurvivorStarvation,
				fmt.Sprintf("surviving processes reached %d object accesses after %d crash(es)", depth, crashes))
		default:
			e.violate(KindDepthExceeded, fmt.Sprintf("execution reached %d object accesses", depth))
		}
		return sum, errAbort
	}

	var memoID int32
	if e.opts.Memoize {
		cached, id, found := e.memo.acquire(e.idKey(c))
		switch found {
		case memoOnStack:
			switch {
			case recoveries > 0:
				e.violate(KindBlockedByRecoveryDivergence,
					fmt.Sprintf("configuration repeats along one execution after %d recover(y/ies)", recoveries))
			case crashes > 0:
				e.violate(KindBlockedBySurvivorStarvation,
					fmt.Sprintf("survivor configuration repeats along one execution after %d crash(es)", crashes))
			default:
				e.violate(KindCycle, "configuration repeats along one execution")
			}
			return sum, errAbort
		case memoHit:
			e.memoHits++
			e.pendMemo++
			return cached, nil
		}
		memoID = id // gray until settled or dropped below
	}

	// All error returns below must clear the gray mark, or a later visit
	// of this configuration would report a phantom cycle; expand has a
	// single exit so the cleanup cannot be skipped by any error path.
	sum.acc = e.levelAcc(e.level)
	err := e.expandNode(c, depth, &sum, t)
	if e.opts.Memoize {
		if err != nil {
			e.memo.drop(memoID)
		} else {
			e.memo.settle(memoID, &sum)
		}
	}
	return sum, err
}

// expandNode expands c, whose summary's counters the caller took from
// this level's buffer (levelAcc; assigned in dfs, to its local, so the
// store needs no write barrier), one level deeper for the children, and
// keeps the buffer if a merge had to replace it (growAcc).
func (e *explorer) expandNode(c *config, depth int, sum *summary, t procTally) error {
	lvl := e.level
	e.level++
	err := e.expand(c, depth, sum, t)
	e.level--
	if cap(sum.acc) > cap(e.levelBufs[lvl]) {
		e.levelBufs[lvl] = sum.acc
	}
	return err
}

// expand explores every enabled step of every process from c, folding the
// child subtrees into sum. Under fault exploration it first explores, for
// each still-live process, the branch where that process crashes here;
// crash branches come first so that a violation reachable both with and
// without crashes surfaces with its crash-annotated schedule. Under
// crash-recovery it then explores, for each crashed process, the branch
// where that process recovers here (recoverProc). The crash budget
// counts crash events, not currently-crashed processes: crashes +
// recoveries, since every recovery implies a prior crash and a recovery
// never refunds the budget. With MaxRecoveries=0
// both sums and branch sets are exactly the crash-stop ones. Every edge
// steps c in place and restores it before the next (eachEdge, faultEdge).
func (e *explorer) expand(c *config, depth int, sum *summary, t procTally) error {
	crashes, recoveries := t.crashes, t.recoveries
	if e.opts.Faults.Enabled() && crashes+recoveries < e.opts.Faults.MaxCrashes {
		for p := range c.procs {
			flags := e.procMeta[c.procs[p]].flags
			if flags&(metaDone|metaCrashed) != 0 {
				continue
			}
			if e.opts.Faults.Mode == faults.CrashBeforeFirstStep && flags&metaStepped != 0 {
				continue
			}
			if err := e.faultEdge(c, p, depth, sum, t, e.crashProc); err != nil {
				return err
			}
		}
	}
	if crashes > 0 && recoveries < e.opts.Faults.MaxRecoveries {
		for p := range c.procs {
			if e.procMeta[c.procs[p]].flags&metaCrashed != 0 {
				if err := e.faultEdge(c, p, depth, sum, t, e.recoverProc); err != nil {
					return err
				}
			}
		}
	}
	return e.eachEdge(c, depth, func(p, obj int, _, _, old int32) error {
		opID := e.pendingOpAcc(old)
		child, err := e.dfs(c, depth+1, e.retally(t, old, c.procs[p]))
		e.mergeChild(sum, &child, opID, e.objIDs[obj], e.procIDs[p])
		return err
	})
}

// eachEdge is the engine's one access-edge loop: the DFS (expand), Valency
// and Dot all take their access edges through it. It steps c in place to
// each child one object access away, in process-index then outcome order,
// through the transition and step caches (access), calls visit at the
// child, and restores c, the path and the path responses before the next
// edge. Configs are strictly stack-scoped — nothing below retains the
// pointer — so after the restore c is the parent again. visit gets the
// access (process p's invocation inv on object obj, answered with
// response id resp) and old, p's state id before the step. A failed
// access is wrapped with its process and depth; visit's errors pass
// through unchanged.
func (e *explorer) eachEdge(c *config, depth int, visit func(p, obj int, inv, resp, old int32) error) error {
	forced := e.opts.Faults.Enabled() && e.opts.Faults.Mode == faults.CrashBeforeFirstStep
	for p := range c.procs {
		m := &e.procMeta[c.procs[p]]
		if m.flags&(metaDone|metaCrashed) != 0 {
			continue
		}
		obj := int(m.obj)
		e.breadcrumb(c, p, depth)
		inv := e.pendingInv(c, p)
		cts, err := e.applyCached(c, p, obj, inv)
		if err != nil {
			return fmt.Errorf("process %d at depth %d: %w", p, depth, err)
		}
		oldObj, oldProc := c.objs[obj], c.procs[p]
		for _, t := range cts {
			mark := e.respN[p]
			err := e.access(c, p, obj, inv, t, forced)
			if err == nil {
				err = visit(p, obj, inv, t.resp, oldProc)
			}
			c.objs[obj], c.procs[p] = oldObj, oldProc
			e.path = e.path[:len(e.path)-1]
			e.respN[p] = mark
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// faultEdge explores the crash or recovery edge of process p of c that
// take (crashProc or recoverProc) places, folds the child into sum, and
// restores c. A fault edge is not an object access: it consumes no depth
// budget and bumps no access counters (mergeCrashChild), matching the
// paper's counting of low-level operations only. Its branch still
// terminates: each crash strictly shrinks the live set, and each
// recovery strictly increases the total recovery count, which
// MaxRecoveries bounds.
func (e *explorer) faultEdge(c *config, p, depth int, sum *summary, t procTally, take func(*config, int) error) error {
	e.breadcrumb(c, p, depth)
	old, mark := c.procs[p], e.respN[p]
	err := take(c, p)
	if err == nil {
		var child summary
		child, err = e.dfs(c, depth, e.retally(t, old, c.procs[p]))
		e.mergeCrashChild(sum, &child)
	}
	c.procs[p] = old
	e.path = e.path[:len(e.path)-1]
	e.respN[p] = mark
	return err
}

// access takes process p's pending access to object obj (invocation id
// inv) in place, with outcome t: exactly one object and one process
// change. The object's successor state comes interned with the cached
// transition, p advances through the step cache (stepProc, whose forced
// bit it passes on), and the access is recorded on the path. Every access
// goes through it: eachEdge's, which restores c and the path after the
// subtree, and Walk's, which never does.
func (e *explorer) access(c *config, p, obj int, inv int32, t cachedTrans, forced bool) error {
	c.objs[obj] = t.next
	err := e.stepProc(c, p, t.resp, forced)
	e.path = append(e.path, pathStep{proc: int32(p), obj: int32(obj), inv: inv, resp: t.resp, ops: int32(e.respN[p])})
	return err
}

// crashProc crashes live process p of c in place and records the CRASH on
// the path. Every engine places crashes through it: the DFS on each crash
// edge (faultEdge), which restores c.procs[p] after the subtree, and Walk
// at each CrashAfter point, which never does. A Walk's scratch state is
// crashed in place. It never fails; the error result gives it
// recoverProc's shape.
func (e *explorer) crashProc(c *config, p int) error {
	if id := c.procs[p]; id < 0 {
		e.scratch[p].Crashed = true
	} else {
		c.procs[p] = e.crashedID(id)
	}
	e.path = append(e.path, pathStep{proc: int32(p), obj: -1, kind: stepCrash, ops: int32(e.respN[p])})
	return nil
}

// recoverProc re-enters crashed process p of c from its recovery section,
// in place like crashProc, and records the RECOVER on the path. This is the
// one definition of a recovery: volatile state (machine state, pending
// access, per-process memory) is lost; the shared objects and the
// process's progress through its script (OpIdx — decided operations stay
// decided) persist. The interrupted operation re-runs from its start, so
// Leaf.History gives it a fresh entry, while its old entry stays pending
// forever: a crashed access never returns. Like a step, a recovery of an
// interned state is cached (recoverRows, one slot per row), since p and
// its crashed state determine it.
func (e *explorer) recoverProc(c *config, p int) error {
	var ps *procState
	var fresh procState
	id := c.procs[p]
	row := int(id)*len(c.procs) + p
	if id < 0 {
		ps = &e.scratch[p]
	} else if st := e.recoverRows.slot(row, 0); st != nil && st.next >= 0 {
		c.procs[p] = st.next
		e.respN[p] += copy(e.respBuf[p][e.respN[p]:], e.stepResps[st.respOff:st.respOff+st.respN])
		e.path = append(e.path, pathStep{proc: int32(p), obj: -1, kind: stepRecover, ops: int32(e.respN[p])})
		return nil
	} else {
		fresh = *e.proc(id)
		ps = &fresh
	}
	ps.Crashed = false
	ps.Recoveries++
	ps.Mst = nil
	ps.Pending = program.Action{}
	ps.Mem = nil
	mark := e.respN[p]
	err := e.startNextOp(ps, p, types.Response{})
	e.path = append(e.path, pathStep{proc: int32(p), obj: -1, kind: stepRecover, ops: int32(e.respN[p])})
	if err == nil && id >= 0 {
		done := e.respBuf[p][mark:e.respN[p]]
		st := procStep{next: e.internProc(ps), respOff: int32(len(e.stepResps)), respN: int32(len(done))}
		e.stepResps = append(e.stepResps, done...)
		*e.recoverRows.fill(row, 0, 1, emptyStep) = st
		c.procs[p] = st.next
	}
	return err
}

// pathStep is one record of the current path: an access by proc on obj,
// with the invocation and response as ids, or a CRASH or RECOVER record.
// ops is proc's count of completed target operations after the step, the
// count of its path responses. Pushing one stores no pointer, so the per-edge
// bookkeeping costs no write barrier.
type pathStep struct {
	proc, obj, inv, resp, ops int32
	kind                      uint8
}

// Path record kinds.
const (
	stepAccess uint8 = iota
	stepCrash
	stepRecover
)

// scheduleView renders the current path as StepRecords into a fresh slice
// the caller owns (nil for an empty path).
func (e *explorer) scheduleView() []StepRecord {
	if len(e.path) == 0 {
		return nil
	}
	sched := make([]StepRecord, len(e.path))
	for i, s := range e.path {
		sched[i] = StepRecord{Proc: int(s.proc), Obj: int(s.obj), Crash: s.kind == stepCrash, Recover: s.kind == stepRecover}
		if s.kind == stepAccess {
			sched[i].Inv, sched[i].Resp = e.invs.vals[s.inv], e.resps.vals[s.resp]
		}
	}
	return sched
}

// histProc is one process's part of a history rendering: root is its
// count of target operations completed at the root, before any access
// (set by newRoot); open and done are Leaf.History's cursor — the index of
// its open entry, and its count of completed operations so far.
type histProc struct {
	root, open, done int
}

// History returns the concurrent history of target operations along this
// execution, or nil unless Options.RecordHistory is set. The path is the
// only record of it: every process opens its first operation at the root,
// and the root counts and the path records' ops counts say which
// operations each step completed, each completion opening the process's
// next scripted operation. Clock events come in the order the steps made
// them: the root advance of each process, p = 0 first; then per access
// record the access itself followed by its completions; per RECOVER record
// a fresh entry for the interrupted operation followed by its completions;
// and nothing for a CRASH, whose interrupted entry stays pending.
func (l *Leaf) History() hist.History {
	e := l.e
	if !e.opts.RecordHistory {
		return nil
	}
	size := 0 // every completed operation, plus one entry per interruption
	for _, n := range e.respN {
		size += n
	}
	for _, s := range e.path {
		if s.kind == stepCrash {
			size++
		}
	}
	b := histBuilder{e: e, h: make(hist.History, 0, size)}
	for p := range e.histProcs {
		e.histProcs[p].done = 0
		b.begin(p)
		b.complete(p, e.histProcs[p].root)
	}
	for _, s := range e.path {
		switch p := int(s.proc); s.kind {
		case stepAccess:
			b.tick++
			b.complete(p, int(s.ops))
		case stepRecover:
			b.begin(p)
			b.complete(p, int(s.ops))
		}
	}
	return b.h
}

// histBuilder is Leaf.History's rendering state.
type histBuilder struct {
	e    *explorer
	h    hist.History
	tick int
}

// begin opens process p's next scripted operation, if it has one.
func (b *histBuilder) begin(p int) {
	hp := &b.e.histProcs[p]
	if hp.done >= len(b.e.scripts[p]) {
		return
	}
	hp.open = len(b.h)
	b.h = append(b.h, hist.Op{
		Proc:  p,
		Port:  p + 1, // convention: process p holds target port p+1
		Inv:   b.e.scripts[p][hp.done],
		Begin: b.tick,
		End:   hist.Pending,
	})
	b.tick++
}

// complete closes process p's open operations, opening the next after
// each, until p has completed n.
func (b *histBuilder) complete(p, n int) {
	hp := &b.e.histProcs[p]
	for hp.done < n {
		op := &b.h[hp.open]
		op.Resp, op.End = b.e.resps.vals[b.e.respBuf[p][hp.done]], b.tick
		b.tick++
		hp.done++
		b.begin(p)
	}
}

// mergeChild folds a child subtree summary (reached via one access by the
// stepping process) into the parent summary. The per-path maximum is taken
// elementwise, with no branch per counter; then the edge access bumps the
// child's counters at the three dense ids — (obj, op), (obj, "") and the
// process's step counter — and those three are maxed again. A zero counter
// means "key absent" in the old map semantics, so a bumped id the child
// never touched (at or past its length, or zero) still contributes the
// edge itself (1), exactly as the map merge did. The merge allocates
// nothing unless the counter table grew during the child's subtree
// (growAcc).
func (e *explorer) mergeChild(parent, child *summary, opID, objID, procID int32) {
	parent.nodes += child.nodes
	parent.leaves += child.leaves
	parent.height = max(parent.height, child.height+1)
	cacc := child.acc
	if n := max(len(cacc), int(max(opID, objID, procID))+1); len(parent.acc) < n {
		e.growAcc(parent)
	}
	pacc := parent.acc[:len(cacc)]
	for i, v := range cacc {
		pacc[i] = max(pacc[i], v)
	}
	for _, id := range [3]int32{opID, objID, procID} {
		v := int32(1)
		if int(id) < len(cacc) {
			v = cacc[id] + 1
		}
		parent.acc[id] = max(parent.acc[id], v)
	}
}

// mergeCrashChild folds a crash- or recovery-branch subtree into the
// parent summary. Such an edge is not an object access: it contributes no
// height and bumps no per-object or per-process counters, so fault
// exploration never inflates the Section 4.2 bounds.
func (e *explorer) mergeCrashChild(parent, child *summary) {
	parent.nodes += child.nodes
	parent.leaves += child.leaves
	parent.height = max(parent.height, child.height)
	if len(parent.acc) < len(child.acc) {
		e.growAcc(parent)
	}
	pacc := parent.acc[:len(child.acc)]
	for i, v := range child.acc {
		pacc[i] = max(pacc[i], v)
	}
}

// leaf hands the leaf at c to OnLeaf and, if the callback rejects it,
// records the violation kind its crashes and recoveries select.
func (e *explorer) leaf(c *config, depth, crashes, recoveries int) error {
	if e.opts.OnLeaf == nil {
		return nil
	}
	e.cur = Leaf{Depth: depth, e: e, c: c}
	if err := e.opts.OnLeaf(&e.cur); err != nil {
		switch {
		case recoveries > 0:
			e.violate(KindDecisionChangedAfterRecovery, err.Error())
		case crashes > 0:
			e.violate(KindInvalidAfterCrash, err.Error())
		default:
			e.violate(KindLeafReject, err.Error())
		}
		return errAbort
	}
	return nil
}

// flushCounters publishes the explorer's local counts into the shared
// engine counters.
func (e *explorer) flushCounters(depth int) {
	e.sinceFlush = 0
	if e.pendNodes != 0 {
		e.ctr.nodes.Add(e.pendNodes)
		e.ctr.workerNodes[e.widx].Add(e.pendNodes)
		e.pendNodes = 0
	}
	if e.pendLeaves != 0 {
		e.ctr.leaves.Add(e.pendLeaves)
		e.pendLeaves = 0
	}
	if e.pendMemo != 0 {
		e.ctr.memoHits.Add(e.pendMemo)
		e.pendMemo = 0
	}
	if e.transHits|e.transMisses|e.stepHits|e.stepMisses != 0 {
		e.ctr.transHits.Add(e.transHits)
		e.ctr.transMisses.Add(e.transMisses)
		e.ctr.stepHits.Add(e.stepHits)
		e.ctr.stepMisses.Add(e.stepMisses)
		e.transHits, e.transMisses, e.stepHits, e.stepMisses = 0, 0, 0, 0
	}
	e.ctr.curDepth.Store(int64(depth))
	e.ctr.bumpMaxDepth(int64(depth))
	if e.memo != nil && e.memo.isDegraded() {
		e.ctr.degraded.Store(true)
	}
	// Heartbeat: every flush proves this worker is making node progress.
	beat := &e.ctr.beats[e.widx]
	beat.lastProgress.Store(time.Now().UnixNano())
	beat.depth.Store(int64(depth))
	if e.ctr.captureKeys && e.curConfig != nil {
		key := e.keyHex(e.curConfig)
		beat.key.Store(&key)
	}
	if e.ctr.maxNodes > 0 && e.ctr.nodes.Load() >= e.ctr.maxNodes {
		e.ctr.trip(tripNodeBudget)
	}
}

func (e *explorer) violate(kind ViolationKind, detail string) {
	if e.violation != nil {
		return
	}
	e.violation = &Violation{
		Kind:     kind,
		Detail:   detail,
		Schedule: e.scheduleView(),
	}
}
