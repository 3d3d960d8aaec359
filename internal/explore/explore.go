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

// Options configures a Run.
type Options struct {
	// MaxDepth is the per-path object-access budget; exceeding it is
	// reported as a wait-freedom violation. 0 means DefaultMaxDepth.
	MaxDepth int
	// Memoize deduplicates configurations reached by several paths. The
	// paper's trees replicate such configurations; memoizing changes cost,
	// never verdicts. Memoization also enables exact cycle detection.
	// Incompatible with RecordHistory.
	Memoize bool
	// RecordHistory attaches the complete concurrent history of target
	// operations to each Leaf, for linearizability checking.
	RecordHistory bool
	// OnLeaf, if set, is called at every leaf. Returning an error aborts
	// exploration and surfaces as a KindLeafReject violation. The *Leaf
	// is a borrowed view: the explorer reuses it, and its Responses,
	// Schedule, Crashed and Recoveries slices, for every leaf, so they are
	// valid only during the call. A callback that keeps leaf data must
	// copy it. History is the exception: each leaf gets its own copy.
	OnLeaf func(*Leaf) error
	// Parallelism bounds the number of worker goroutines Consensus and
	// ConsensusK use to explore independent proposal-vector trees
	// concurrently: 0 means runtime.GOMAXPROCS(0), 1 forces sequential
	// exploration. Run itself always explores its single tree
	// sequentially. Every field of the merged ConsensusReport — verdicts,
	// Depth, access bounds, Nodes, Leaves, and MemoHits — is identical at
	// every parallelism level, because each tree owns its memo table and
	// trees are merged in proposal-vector order. Parallelism > 1 requires
	// Spec.Step and Machine implementations to be pure functions of their
	// arguments (all in-repo types and machines are).
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
	// re-explored. Only ConsensusContext / ConsensusKContext honor it; Run
	// rejects it (single trees have no frontier to resume).
	ResumeFrom *Checkpoint
	// Symmetry selects process-permutation symmetry reduction for
	// Consensus/ConsensusK: proposal vectors that are permutations of one
	// another generate isomorphic execution trees when the implementation
	// is process-symmetric (declared SymmetricProcs over oblivious, fully
	// ported objects), so only one representative tree per orbit is
	// explored and the other members replay its outcome. The merged
	// ConsensusReport is byte-identical to an unreduced run — verdicts,
	// Depth, access bounds, Nodes, Leaves, MemoHits — while the engine
	// Stats, which count work actually performed, shrink by up to n!.
	// SymmetryOff (the zero value) explores every tree; SymmetryAuto
	// reduces when the implementation qualifies and silently falls back
	// otherwise; SymmetryRequire errors with ErrNotSymmetric instead of
	// falling back. Run ignores Symmetry (a single tree has no orbit), and
	// MemoBudget disables reduction (eviction timing is traversal-order
	// dependent; see planOrbits).
	Symmetry SymmetryMode
	// MaxNodes is a soft budget on explored configurations for the
	// consensus engines: once the engine counters pass it, workers stop
	// claiming work, unwind, and ConsensusKContext returns a
	// ConsensusReport with Partial set and a Coverage block describing how
	// far the run got — with a nil error, consistent with the Degraded
	// memo-budget contract. The budget is soft: workers notice it at their
	// next counter flush, so the overshoot is bounded by
	// workers*flushEvery. 0 means unbounded. Run ignores MaxNodes (a
	// single tree has no partial-merge frontier).
	MaxNodes int64
	// StallAfter arms the stall watchdog for the consensus engines: a
	// supervisor goroutine flags any worker that makes no node progress
	// for this long, stops the run, and surfaces a *StallError carrying
	// the worker, its tree, and the config key of its last flushed
	// configuration — turning a wedged Spec.Step or Machine from a silent
	// hang into a diagnosable report. 0 disables the watchdog. Run ignores
	// StallAfter.
	StallAfter time.Duration
	// CheckpointEvery autosaves the consensus frontier: every interval,
	// the supervisor snapshots a Checkpoint of the trees finished so far
	// and hands it to OnCheckpoint, so an OOM-kill or power loss costs at
	// most one interval of work. Requires OnCheckpoint; 0 with OnCheckpoint
	// set means DefaultCheckpointEvery. Run ignores both.
	CheckpointEvery time.Duration
	// OnCheckpoint receives autosave snapshots (see CheckpointEvery). It
	// is called from the supervisor goroutine only — never concurrently
	// with itself — and the Checkpoint it receives is freshly built, never
	// aliased by the engine afterwards. Callers typically persist it with
	// the durable package.
	OnCheckpoint func(*Checkpoint)
	// OnProgress, if set, receives engine Stats snapshots every
	// ProgressInterval while RunContext / ConsensusContext /
	// ConsensusKContext execute, plus one final snapshot when the engine
	// stops (normally, on violation, or on cancellation). Snapshots are
	// observational (see Stats); they never influence the report.
	// OnProgress is called from a single goroutine at a time.
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
	if o.CheckpointEvery > 0 && o.OnCheckpoint == nil {
		return fmt.Errorf("%w: CheckpointEvery requires OnCheckpoint", ErrBadOptions)
	}
	return nil
}

// Leaf describes one completed execution. OnLeaf receives it as a
// borrowed view: every slice except History is owned by the explorer and
// overwritten at the next leaf (see Options.OnLeaf).
type Leaf struct {
	// Responses[p][k] is the response of process p's k-th target
	// operation. Under memoization only the last operation's response per
	// process is available (earlier ones are zero Responses for processes
	// whose prefix was deduplicated).
	Responses [][]types.Response
	// Depth is the number of object accesses along this execution.
	Depth int
	// History is the concurrent history of target operations
	// (RecordHistory mode only).
	History hist.History
	// Schedule is the access sequence of this execution, including its
	// CRASH and RECOVER records; it aliases the explorer's current path.
	Schedule []StepRecord
	// Crashed[p] reports whether process p crashed along this execution
	// and never came back (fault exploration only; nil when Options.Faults
	// is disabled).
	Crashed []bool
	// Recoveries[p] is the number of times process p crashed and recovered
	// along this execution (crash-recovery exploration only; nil unless
	// some process recovered).
	Recoveries []int
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

// Result aggregates a Run.
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

// summary is the subtree aggregate computed bottom-up. Access counters are
// a dense int32 slice indexed by the explorer's accTable ids (arena.go)
// rather than a per-node map; a zero counter means the key was absent from
// the old map form, so conversions back to the named report maps skip
// zeroes.
type summary struct {
	height int
	nodes  int64
	leaves int64
	acc    []int32

	// Memo-table bookkeeping (never part of the aggregate): ref is the
	// second-chance bit of the memo entry holding the summary (a hit sets
	// it, the eviction clock clears it; never set on grayMark); retained
	// marks a summary owned by the memo (settle sets it — recycleSummary
	// must never take one); spilled marks a summary already written to the
	// spill tier, so a re-eviction after a spill load never rewrites it.
	ref      bool
	retained bool
	spilled  bool
}

// procState is one process's part of a configuration. All fields are
// comparable values; machine states and memories must be pointer-free.
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

type config struct {
	objs  []types.State
	procs []procState

	// objEnc[i] / procEnc[p] cache the key-encoder segment of the
	// corresponding component (the flat layout): each component is encoded
	// once, when it changes, and the memo key is assembled by
	// concatenating the cached segments (explorer.flatKey) instead of
	// re-walking the whole configuration per node. Segments are immutable
	// arena bytes shared freely between a config and its clones. Only
	// maintained on the memoized hot path; nil on configs built elsewhere
	// (valency, dot, tests), which keep using configKey.
	objEnc  [][]byte
	procEnc [][]byte
}

// clone is the allocation-per-call copy used off the hot path (valency,
// dot); the explorer's DFS uses cloneConfig (arena.go), which recycles.
func (c *config) clone() *config {
	d := &config{
		objs:  make([]types.State, len(c.objs)),
		procs: make([]procState, len(c.procs)),
	}
	copy(d.objs, c.objs)
	copy(d.procs, c.procs)
	return d
}

// Run explores all executions of im in which process p performs the target
// invocations scripts[p], in order. It returns the tree's aggregate result;
// semantic findings are reported in Result.Violation, structural problems
// as errors. Run is RunContext with a background context.
func Run(im *program.Implementation, scripts [][]types.Invocation, opts Options) (*Result, error) {
	return RunContext(context.Background(), im, scripts, opts)
}

// RunContext is Run under a context: cancellation or deadline expiry stops
// the exploration within flushEvery configurations and returns ctx.Err()
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
	stop := startProgress(opts, ctr)
	defer stop()
	res, err := runTree(ctx, im, scripts, opts, ctr, 0)
	ctr.treesDone.Add(1)
	return res, err
}

// runTree explores one execution tree on behalf of worker widx, feeding
// the shared engine counters and honoring ctx.
func runTree(ctx context.Context, im *program.Implementation, scripts [][]types.Invocation, opts Options, ctr *counters, widx int) (*Result, error) {
	// Check up front so an already-dead context never starts a tree —
	// the in-DFS poll only fires every flushEvery configurations, which a
	// small tree may never reach.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e, root, err := newExplorer(im, scripts, opts)
	if err != nil {
		return nil, err
	}
	e.ctx = ctx
	e.ctr = ctr
	e.widx = widx
	return e.explore(root)
}

// newExplorer validates the run's shape and builds the explorer and the
// root configuration (every process advanced to its first object access).
func newExplorer(im *program.Implementation, scripts [][]types.Invocation, opts Options) (*explorer, *config, error) {
	if err := im.Validate(); err != nil {
		return nil, nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if len(scripts) != im.Procs {
		return nil, nil, fmt.Errorf("%w: %d scripts for %d processes", ErrBadScripts, len(scripts), im.Procs)
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	e := &explorer{
		im:      im,
		scripts: scripts,
		opts:    opts,
		curProc: -1,
	}
	if opts.Memoize {
		e.memo = newMemoTable(opts.MemoBudget, opts.MemoSpillDir, opts.FS)
		e.enc = newKeyEncoder()
	}
	root := &config{
		objs:  im.InitialStates(),
		procs: make([]procState, im.Procs),
	}
	e.responses = make([][]types.Response, im.Procs)
	for p := 0; p < im.Procs; p++ {
		e.responses[p] = make([]types.Response, 0, len(scripts[p]))
		root.procs[p] = procState{Mem: nil}
		if err := e.startNextOp(root, p, types.Response{}); err != nil {
			return nil, nil, err
		}
	}
	if opts.Memoize {
		// Flat layout: encode every root component once; per-edge updates
		// re-encode only what changed.
		e.encodeSegments(root)
	}
	return e, root, nil
}

// explore runs the DFS from root and aggregates the result. A panic in
// user-supplied code (a type spec's transition function or a machine) is
// recovered and converted into a structured *faults.PanicError carrying the
// offending configuration's key, instead of killing the worker goroutine
// and with it the whole process.
func (e *explorer) explore(root *config) (res *Result, err error) {
	if e.memo != nil {
		defer e.memo.release()
	}
	defer func() {
		if r := recover(); r != nil {
			err = faults.NewPanicError("explore", e.curProc, e.panicContext(), r, debug.Stack())
			res = nil
		}
	}()
	if e.acct == nil {
		e.initAcct()
	}
	im := e.im
	sum, err := e.dfs(root, 0)
	e.flushCounters(0)
	e.flushMemoCounters()
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
		switch k := e.acct.keys[i]; {
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

// flushMemoCounters publishes the memo table's eviction telemetry into the
// shared engine counters once, when the tree finishes.
func (e *explorer) flushMemoCounters() {
	if e.ctr == nil || e.memo == nil {
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

// errAbort unwinds the DFS after a violation was recorded.
var errAbort = errors.New("explore: aborted")

type explorer struct {
	im      *program.Implementation
	scripts [][]types.Invocation
	opts    Options

	// Engine instrumentation (nil/zero for bare explorers built in tests):
	// ctx is polled and local counters are flushed into ctr every
	// flushEvery configurations; widx is this explorer's worker slot.
	ctx  context.Context
	ctr  *counters
	widx int

	pendNodes  int64
	pendLeaves int64
	pendMemo   int64
	sinceFlush int

	// memo deduplicates configurations; entries holding grayMark are on
	// the current DFS stack (cycle detection). enc renders configurations
	// into the memo's byte keys. The table is single-owner: this explorer
	// (one execution tree) is its only user.
	memo     *memoTable
	enc      *keyEncoder
	memoHits int64

	// Dense access-counter ids (arena.go): acct interns accKeys, procIDs /
	// objIDs are fixed-position lookup slices, opIDs[obj] lazily interns
	// per-operation ids.
	acct    *accTable
	procIDs []int32
	objIDs  []int32
	opIDs   []map[string]int32

	// Allocation machinery (arena.go): slab arenas for summaries, counter
	// slices, and segment encodings, plus free lists for configs and
	// non-retained summaries. segScratch is the reusable encode buffer
	// behind encodeObjSeg/encodeProcSeg (separate from enc.buf, which may
	// hold an assembled key).
	sums       summaryArena
	segs       byteArena
	segScratch []byte
	freeSums   []*summary
	freeCfgs   []*config

	// transCache memoizes Spec.Apply results on the flat path, keyed by
	// (object, encoded state segment, port, invocation); stepCache does
	// the same for startNextOp, keyed by (process, encoded pre-state
	// segment, response). Sound because Spec.Step and machines are
	// documented as deterministic pure functions (the same contract
	// Parallelism > 1 relies on) and the segment encodings are injective
	// per encoder; together they turn the per-edge user-code calls, their
	// allocations, and the successor segment encodings into no-alloc map
	// hits. Both are bounded by per-component state counts — roots of the
	// configuration count the memo table holds — so they stay negligible
	// even under MemoBudget.
	transCache   map[string][]cachedTrans
	transScratch []byte
	stepCache    map[string]procStep
	stepScratch  []byte

	// beatEnc renders heartbeat config keys when the stall watchdog is
	// armed (counters.captureKeys). It is separate from enc, whose buffer
	// may be mid-append, and lazily allocated so unwatched runs pay
	// nothing.
	beatEnc *keyEncoder

	// leafView is the one Leaf handed to every OnLeaf call; leafCrashed
	// and leafRecoveries back its Crashed and Recoveries slices, which are
	// nil on leaves without crashes or recoveries.
	leafView       Leaf
	leafCrashed    []bool
	leafRecoveries []int

	// Path-local data (push/pop around recursion).
	schedule  []StepRecord
	responses [][]types.Response
	history   hist.History
	openOp    []int // per proc: index into history of the open op, -1 if none
	clock     int

	// Panic-recovery breadcrumbs: the configuration being expanded, the
	// process being stepped, and its depth. Pointer/int stores only, so the
	// hot path pays nothing; the recovery handler renders them lazily.
	curConfig *config
	curProc   int
	curDepth  int

	violation *Violation
}

// panicContext renders the recovery breadcrumbs, including the offending
// configuration's key (hex), for *faults.PanicError. It is only called
// after a panic, so it may allocate freely — including a fresh key encoder,
// because the explorer's own encoder may have been mid-append.
func (e *explorer) panicContext() string {
	if e.curConfig == nil {
		return "root configuration"
	}
	key := newKeyEncoder().configKey(e.curConfig)
	return fmt.Sprintf("depth %d, config key %x", e.curDepth, key)
}

// startNextOp advances process p past any number of operation boundaries:
// it feeds resp to the machine and folds zero-access returns and starts
// until the process either has a pending object access or is done. Local
// steps consume no tree edges, matching the paper's counting of low-level
// operations only.
func (e *explorer) startNextOp(c *config, p int, resp types.Response) error {
	ps := &c.procs[p]
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
		e.beginOp(c, p)
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
			e.endOp(c, p, act)
			if ps.OpIdx >= len(e.scripts[p]) {
				ps.Done = true
				ps.Mst = nil
				ps.Pending = program.Action{}
				return nil
			}
			e.beginOp(c, p)
			resp = types.Response{}
		default:
			return fmt.Errorf("explore: process %d produced invalid action kind %d", p, act.Kind)
		}
	}
}

func (e *explorer) beginOp(c *config, p int) {
	ps := &c.procs[p]
	inv := e.scripts[p][ps.OpIdx]
	ps.Mst = e.im.Machines[p].Start(inv, ps.Mem)
	if e.opts.RecordHistory {
		if e.openOp == nil {
			e.openOp = make([]int, e.im.Procs)
			for i := range e.openOp {
				e.openOp[i] = -1
			}
		}
		e.openOp[p] = len(e.history)
		e.history = append(e.history, hist.Op{
			Proc:  p,
			Port:  p + 1, // convention: process p holds target port p+1
			Inv:   inv,
			Begin: e.clock,
			End:   hist.Pending,
		})
		e.clock++
	}
}

func (e *explorer) endOp(c *config, p int, act program.Action) {
	ps := &c.procs[p]
	e.responses[p] = append(e.responses[p], act.Resp)
	ps.Resp = act.Resp
	ps.Mem = act.Mem
	ps.OpIdx++
	if e.opts.RecordHistory {
		idx := e.openOp[p]
		e.history[idx].Resp = act.Resp
		e.history[idx].End = e.clock
		e.openOp[p] = -1
		e.clock++
	}
}

func (e *explorer) dfs(c *config, depth int) (*summary, error) {
	if e.acct == nil {
		e.initAcct() // bare explorers (tests) enter here without explore()
	}
	sum := e.newSummary()
	e.pendNodes++
	if e.sinceFlush++; e.sinceFlush >= flushEvery {
		e.flushCounters(depth)
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return sum, err
			}
		}
	}
	// A process counts as finished when it is done or crashed: a leaf of a
	// faulty execution only requires the survivors to have completed.
	allDone := true
	crashes := 0
	recoveries := 0
	for p := range c.procs {
		recoveries += c.procs[p].Recoveries
		if c.procs[p].Crashed {
			crashes++
		} else if !c.procs[p].Done {
			allDone = false
		}
	}
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
		err := e.expand(c, depth, sum, crashes, recoveries)
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
		if c.objEnc == nil {
			// A config handed in without cached segments (a bare explorer
			// in a test): build them once; children inherit incrementally.
			e.encodeSegments(c)
		}
		cached, id := e.memo.acquire(e.flatKey(c))
		if cached != nil {
			if cached == grayMark {
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
			}
			e.memoHits++
			e.pendMemo++
			e.recycleSummary(sum) // fresh, nothing merged: reuse it
			return cached, nil
		}
		memoID = id // gray until settled or dropped below
	}

	// All error returns below must clear the gray mark, or a later visit
	// of this configuration would report a phantom cycle; expand has a
	// single exit so the cleanup cannot be skipped by any error path.
	err := e.expand(c, depth, sum, crashes, recoveries)
	if e.opts.Memoize {
		if err != nil {
			e.memo.drop(memoID)
		} else {
			e.memo.settle(memoID, sum)
		}
	}
	return sum, err
}

// expand explores every enabled step of every process from c, folding the
// child subtrees into sum. Under fault exploration it first explores, for
// each still-live process, the branch where that process crashes here;
// crash branches come first so that a violation reachable both with and
// without crashes surfaces with its crash-annotated schedule. Under
// crash-recovery it then explores, for each crashed process, the branch
// where that process recovers here: volatile state (machine state,
// pending access, per-process memory) resets to initial, the interrupted
// target operation re-runs from its start, and the shared object states
// persist. The crash budget counts crash events, not currently-crashed
// processes: crashes + recoveries, since every recovery implies a prior
// crash and a recovery never refunds the budget. With MaxRecoveries=0
// both sums and branch sets are exactly the crash-stop ones.
func (e *explorer) expand(c *config, depth int, sum *summary, crashes, recoveries int) error {
	if e.opts.Faults.Enabled() && crashes+recoveries < e.opts.Faults.MaxCrashes {
		for p := range c.procs {
			ps := &c.procs[p]
			if ps.Done || ps.Crashed {
				continue
			}
			if e.opts.Faults.Mode == faults.CrashBeforeFirstStep && ps.Stepped {
				continue
			}
			child := e.cloneConfig(c)
			child.procs[p].Crashed = true
			if e.opts.Memoize {
				child.procEnc[p] = e.encodeProcSeg(&child.procs[p])
			}
			e.schedule = append(e.schedule, StepRecord{Proc: p, Obj: -1, Crash: true})
			// A crash is not an object access: it consumes no depth budget
			// and bumps no access counters (mergeCrashChild), matching the
			// paper's counting of low-level operations only. Termination is
			// still guaranteed — each crash strictly shrinks the live set.
			childSum, err := e.dfs(child, depth)
			if childSum != nil {
				e.mergeCrashChild(sum, childSum)
			}
			e.schedule = e.schedule[:len(e.schedule)-1]
			if err != nil {
				return err
			}
			e.recycleSummary(childSum)
			e.recycleConfig(child)
		}
	}
	if crashes > 0 && recoveries < e.opts.Faults.MaxRecoveries {
		for p := range c.procs {
			if !c.procs[p].Crashed {
				continue
			}
			e.curConfig, e.curProc, e.curDepth = c, p, depth
			child := e.cloneConfig(c)
			ps := &child.procs[p]
			ps.Crashed = false
			ps.Recoveries++
			// Volatile state is lost; the shared objects (child.objs) and
			// the process's progress through its script (OpIdx — decided
			// operations stay decided) persist. The interrupted operation
			// re-runs from its start with a fresh machine state and nil
			// memory.
			ps.Mst = nil
			ps.Pending = program.Action{}
			ps.Mem = nil
			e.schedule = append(e.schedule, StepRecord{Proc: p, Obj: -1, Recover: true})
			respMark := len(e.responses[p])
			histMark := len(e.history)
			clockMark := e.clock
			prevOpen := -1
			if e.openOp != nil {
				prevOpen = e.openOp[p]
			}

			err := e.startNextOp(child, p, types.Response{})
			var childSum *summary
			if err == nil {
				if e.opts.Memoize {
					child.procEnc[p] = e.encodeProcSeg(&child.procs[p])
				}
				// Like a crash, a recovery is not an object access: no
				// depth budget, no access counters. Termination holds
				// because each recovery strictly increases the total
				// recovery count, which MaxRecoveries bounds.
				childSum, err = e.dfs(child, depth)
			}
			if childSum != nil {
				e.mergeCrashChild(sum, childSum)
			}

			e.schedule = e.schedule[:len(e.schedule)-1]
			e.responses[p] = e.responses[p][:respMark]
			if e.opts.RecordHistory {
				e.undoHistory(histMark, clockMark)
				// The re-executed operation's entry stole p's open-op slot
				// from the interrupted operation (which stays pending
				// forever — a crashed access never returns); restore it.
				e.openOp[p] = prevOpen
			}
			if err != nil {
				return err
			}
			e.recycleSummary(childSum)
			e.recycleConfig(child)
		}
	}
	for p := range c.procs {
		if c.procs[p].Done || c.procs[p].Crashed {
			continue
		}
		e.curConfig, e.curProc, e.curDepth = c, p, depth
		act := c.procs[p].Pending
		var cts []cachedTrans
		var err error
		if e.opts.Memoize {
			cts, err = e.applyCached(c, p, act)
		} else {
			decl := &e.im.Objects[act.Obj]
			var ts []types.Transition
			ts, err = decl.Spec.Apply(c.objs[act.Obj], decl.Port(p), act.Inv)
			cts = make([]cachedTrans, len(ts))
			for i, t := range ts {
				cts[i] = cachedTrans{next: t.Next, resp: t.Resp}
			}
		}
		if err != nil {
			return fmt.Errorf("process %d at depth %d: %w", p, depth, err)
		}
		opID := e.opAccID(act.Obj, act.Inv.Op)
		objID := e.objIDs[act.Obj]
		procID := e.procIDs[p]
		forcedStep := e.opts.Faults.Enabled() && e.opts.Faults.Mode == faults.CrashBeforeFirstStep
		for _, t := range cts {
			// Step in place: exactly one object and one process change on
			// this edge, so instead of cloning the whole configuration
			// (procStates are pointer-dense — the copies and their write
			// barriers dominated the hot path) the edge saves the two
			// changed slots and their segments, mutates, explores the
			// child subtree, and restores. Configs are strictly
			// stack-scoped — nothing below retains the pointer — and
			// every expand call restores c before returning, so after the
			// restore c is the parent again for the next transition.
			oldObj := c.objs[act.Obj]
			oldProc := c.procs[p]
			var oldObjSeg, oldProcSeg []byte
			if e.opts.Memoize {
				oldObjSeg, oldProcSeg = c.objEnc[act.Obj], c.procEnc[p]
			}
			c.objs[act.Obj] = t.next
			if forcedStep {
				c.procs[p].Stepped = true
			}

			// Path-local bookkeeping with undo.
			e.schedule = append(e.schedule, StepRecord{Proc: p, Obj: act.Obj, Inv: act.Inv, Resp: t.resp})
			respMark := len(e.responses[p])
			histMark := len(e.history)
			clockMark := e.clock
			if e.opts.RecordHistory {
				e.clock++ // the access itself is a clock event
			}

			var err error
			if e.opts.Memoize {
				// The object's successor segment comes pre-encoded with
				// the cached transition, and the process advances (with
				// its segment) through the step cache; everything else is
				// shared.
				c.objEnc[act.Obj] = t.nextEnc
				err = e.stepProcCached(c, p, t.resp, forcedStep)
			} else {
				err = e.startNextOp(c, p, t.resp)
			}
			var childSum *summary
			if err == nil {
				childSum, err = e.dfs(c, depth+1)
			}

			// Restore the parent configuration before any other code
			// (merges, error returns) can observe c.
			c.objs[act.Obj] = oldObj
			c.procs[p] = oldProc
			if e.opts.Memoize {
				c.objEnc[act.Obj], c.procEnc[p] = oldObjSeg, oldProcSeg
			}

			if childSum != nil {
				e.mergeChild(sum, childSum, opID, objID, procID)
			}

			// Undo path-local bookkeeping.
			e.schedule = e.schedule[:len(e.schedule)-1]
			e.responses[p] = e.responses[p][:respMark]
			if e.opts.RecordHistory {
				e.undoHistory(histMark, clockMark)
			}

			if err != nil {
				return err
			}
			e.recycleSummary(childSum)
		}
	}
	return nil
}

// undoHistory rewinds the recorded history to the state it had when
// len(e.history) was histMark and e.clock was clockMark: ops opened at or
// after the mark are discarded wholesale, and ops completed at or after
// the mark are reopened.
func (e *explorer) undoHistory(histMark, clockMark int) {
	for i := histMark; i < len(e.history); i++ {
		if e.openOp[e.history[i].Proc] == i {
			e.openOp[e.history[i].Proc] = -1
		}
	}
	e.history = e.history[:histMark]
	for i := range e.history {
		op := &e.history[i]
		if op.End != hist.Pending && op.End >= clockMark {
			op.End = hist.Pending
			op.Resp = types.Response{}
			e.openOp[op.Proc] = i
		}
	}
	e.clock = clockMark
}

// mergeChild folds a child subtree summary (reached via one access by the
// stepping process) into the parent summary. The edge access increments
// the child's per-path counters at the three dense ids — (obj, op),
// (obj, "") and the process's step counter — and the per-path maximum is
// taken elementwise; the merge allocates nothing per edge (the parent's
// counter slice grows at most to the interning table's size, from the
// arena). A zero counter means "key absent" in the old map semantics: a
// bumped id the child never touched still contributes the edge itself
// (max with 1), exactly as the map merge did.
func (e *explorer) mergeChild(parent, child *summary, opID, objID, procID int32) {
	parent.nodes += child.nodes
	parent.leaves += child.leaves
	if h := child.height + 1; h > parent.height {
		parent.height = h
	}
	need := len(child.acc)
	if int(opID) >= need {
		need = int(opID) + 1
	}
	if int(objID) >= need {
		need = int(objID) + 1
	}
	if int(procID) >= need {
		need = int(procID) + 1
	}
	if len(parent.acc) < need {
		e.growAcc(parent, need)
	}
	pacc := parent.acc
	for i, v := range child.acc {
		switch int32(i) {
		case opID, objID, procID:
			v++
		}
		if v > pacc[i] {
			pacc[i] = v
		}
	}
	for _, id := range [3]int32{opID, objID, procID} {
		if int(id) >= len(child.acc) && pacc[id] < 1 {
			pacc[id] = 1
		}
	}
}

// mergeCrashChild folds a crash- or recovery-branch subtree into the
// parent summary. Such an edge is not an object access: it contributes no
// height and bumps no per-object or per-process counters, so fault
// exploration never inflates the Section 4.2 bounds.
func (e *explorer) mergeCrashChild(parent, child *summary) {
	parent.nodes += child.nodes
	parent.leaves += child.leaves
	if child.height > parent.height {
		parent.height = child.height
	}
	if len(parent.acc) < len(child.acc) {
		e.growAcc(parent, len(child.acc))
	}
	pacc := parent.acc
	for i, v := range child.acc {
		if v > pacc[i] {
			pacc[i] = v
		}
	}
}

func (e *explorer) leaf(c *config, depth, crashes, recoveries int) error {
	if e.opts.OnLeaf == nil {
		return nil
	}
	// One borrowed view per explorer (see Options.OnLeaf): the slices are
	// refilled in place, and Schedule aliases the current path, capped so
	// an append by the callback cannot write into the explorer's stack.
	leaf := &e.leafView
	leaf.Depth = depth
	leaf.Schedule = e.schedule[:len(e.schedule):len(e.schedule)]
	if leaf.Responses == nil {
		leaf.Responses = make([][]types.Response, e.im.Procs)
	}
	for p := 0; p < e.im.Procs; p++ {
		if e.opts.Memoize {
			// Path data may be incomplete under memoization; surface the
			// per-process final responses from the configuration itself.
			leaf.Responses[p] = append(leaf.Responses[p][:0], c.procs[p].Resp)
		} else {
			leaf.Responses[p] = append(leaf.Responses[p][:0], e.responses[p]...)
		}
	}
	leaf.Crashed = nil
	if crashes > 0 {
		if e.leafCrashed == nil {
			e.leafCrashed = make([]bool, e.im.Procs)
		}
		for p := range c.procs {
			e.leafCrashed[p] = c.procs[p].Crashed
		}
		leaf.Crashed = e.leafCrashed
	}
	leaf.Recoveries = nil
	if recoveries > 0 {
		if e.leafRecoveries == nil {
			e.leafRecoveries = make([]int, e.im.Procs)
		}
		for p := range c.procs {
			e.leafRecoveries[p] = c.procs[p].Recoveries
		}
		leaf.Recoveries = e.leafRecoveries
	}
	if e.opts.RecordHistory {
		// Copied, not borrowed: callers may rewrite the history they get.
		leaf.History = append(hist.History(nil), e.history...)
	}
	if err := e.opts.OnLeaf(leaf); err != nil {
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
// engine counters (a no-op for bare explorers without one).
func (e *explorer) flushCounters(depth int) {
	e.sinceFlush = 0
	if e.ctr == nil {
		return
	}
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
		if e.beatEnc == nil {
			e.beatEnc = newKeyEncoder()
		}
		key := fmt.Sprintf("%x", e.beatEnc.configKey(e.curConfig))
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
		Schedule: append([]StepRecord(nil), e.schedule...),
	}
}
