package explore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// ConsensusReport is the verdict of exhaustively checking a consensus
// implementation over all proposal vectors (the paper's 2^n trees) and all
// interleavings and nondeterministic resolutions within each tree. The
// struct is the single source of truth for both renderings of a check:
// String() is the human form the CLIs print, and the JSON field tags are
// the machine form behind the CLIs' -json flag and waitfree.Check.
type ConsensusReport struct {
	Procs int `json:"procs"`
	Roots int `json:"roots"`

	// Agreement: in every execution all processes decide the same value.
	Agreement bool `json:"agreement"`
	// Validity: every decided value was proposed by some process.
	Validity bool `json:"validity"`
	// WaitFree: no execution exceeded the step budget or cycled.
	WaitFree bool `json:"wait_free"`

	// Depth is the maximum number of object accesses over all executions
	// of all trees: the uniform bound D of Section 4.2.
	Depth int `json:"depth"`
	// MaxAccess[o] and OpAccess[o][op] are per-object access bounds over
	// all executions of all trees (Section 4.2's r_b and w_b, computed
	// exactly per object and operation).
	MaxAccess []int            `json:"max_access"`
	OpAccess  []map[string]int `json:"op_access"`
	// ProcSteps[p] bounds process p's own steps over all executions — the
	// per-process form of wait-freedom.
	ProcSteps []int `json:"proc_steps"`

	Nodes    int64 `json:"nodes"`
	Leaves   int64 `json:"leaves"`
	MemoHits int64 `json:"memo_hits"`

	// Objects names the implementing objects, index-aligned with
	// MaxAccess/OpAccess, so the report renders without the implementation.
	Objects []string `json:"objects,omitempty"`

	// Decisions lists the values decided in at least one execution.
	Decisions []int `json:"decisions"`

	// Violation describes the first failure, with the proposal vector of
	// the offending tree; nil if the implementation is correct.
	Violation *Violation `json:"violation,omitempty"`
	// ViolationProposals is the proposal vector of the violating tree.
	ViolationProposals []int `json:"violation_proposals,omitempty"`

	// Faults echoes the fault model the check ran under (nil when fault
	// exploration was disabled). When set, every verdict above also covers
	// each enumerated crash schedule: survivors decided, agreed, and
	// decided validly in every execution with up to MaxCrashes crashes.
	Faults *faults.Model `json:"faults,omitempty"`

	// Degraded reports that at least one tree's memo table hit
	// Options.MemoBudget and evicted entries; verdicts and bounds are
	// still exact, MemoHits undercounts.
	Degraded bool `json:"degraded,omitempty"`

	// Partial reports that the run stopped early under a soft budget
	// (Options.MaxNodes), a context deadline, or the stall watchdog,
	// without reaching a verdict: the verdict fields cover only the merged
	// prefix (Coverage.TreesMerged trees) and OK() is false. Partial runs
	// carry a Checkpoint to resume from. A run whose merged prefix already
	// exhibits a violation is conclusive and is NOT marked partial — a
	// counterexample refutes the implementation no matter what was left
	// unexplored.
	Partial bool `json:"partial,omitempty"`
	// Coverage describes how far a partial run got; nil on complete runs.
	Coverage *Coverage `json:"coverage,omitempty"`

	// Checkpoint is the resumable frontier snapshot of an unfinished run:
	// set alongside ctx.Err() when the run was cancelled, and on every
	// Partial report. Completed runs never carry one.
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`

	// Stats is the engine's final cumulative snapshot: observational
	// counters that may exceed Nodes/Leaves/MemoHits when a violation cut
	// the deterministic merge short of speculatively explored trees.
	Stats *Stats `json:"stats,omitempty"`
}

// OK reports whether the implementation passed all checks. A Partial
// report never passes: its verdicts cover only the merged prefix.
func (r *ConsensusReport) OK() bool {
	return !r.Partial && r.Agreement && r.Validity && r.WaitFree
}

// Summary renders a one-line verdict.
func (r *ConsensusReport) Summary() string {
	status := "OK"
	switch {
	case r.Partial:
		status = "PARTIAL"
	case !r.OK():
		status = "FAIL"
	}
	s := fmt.Sprintf("%s: procs=%d roots=%d D=%d nodes=%d leaves=%d agreement=%v validity=%v waitfree=%v",
		status, r.Procs, r.Roots, r.Depth, r.Nodes, r.Leaves, r.Agreement, r.Validity, r.WaitFree)
	if r.Faults != nil {
		s += fmt.Sprintf(" faults=[%v]", *r.Faults)
	}
	if r.Degraded {
		s += " degraded=true"
	}
	if r.Coverage != nil {
		s += fmt.Sprintf(" trees=%d/%d", r.Coverage.TreesDone, r.Coverage.TreesTotal)
	}
	return s
}

// objectName returns the display name of object o.
func (r *ConsensusReport) objectName(o int) string {
	if o < len(r.Objects) && r.Objects[o] != "" {
		return r.Objects[o]
	}
	return fmt.Sprintf("obj%d", o)
}

// String renders the full human-readable report: the summary line, the
// reachable decisions, the per-process wait-freedom bounds, the Section
// 4.2 per-object access bounds, and the counterexample schedule if the
// check failed.
func (r *ConsensusReport) String() string {
	var b strings.Builder
	b.WriteString(r.Summary())
	b.WriteByte('\n')
	if r.Coverage != nil {
		b.WriteString(r.Coverage.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "decisions reachable: %v\n", r.Decisions)
	fmt.Fprintf(&b, "per-process wait-freedom bounds (own steps): %v\n", r.ProcSteps)
	b.WriteString("per-object access bounds over all executions (Section 4.2):\n")
	for o := range r.MaxAccess {
		ops := r.OpAccess[o]
		keys := make([]string, 0, len(ops))
		for op := range ops {
			keys = append(keys, op)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "  %-10s total<=%d", r.objectName(o), r.MaxAccess[o])
		for _, op := range keys {
			fmt.Fprintf(&b, "  %s<=%d", op, ops[op])
		}
		b.WriteByte('\n')
	}
	if r.Violation != nil {
		fmt.Fprintf(&b, "counterexample (proposals %v):\n%s\n", r.ViolationProposals, FormatSchedule(r.Violation.Schedule))
		fmt.Fprintf(&b, "detail: %s\n", r.Violation.Detail)
	}
	return b.String()
}

// ProposalVectorK decodes base-k digit p of mask as process p's proposal.
func ProposalVectorK(mask, procs, k int) []int {
	vec := make([]int, procs)
	for p := 0; p < procs; p++ {
		vec[p] = mask % k
		mask /= k
	}
	return vec
}

// treeOutcome is one proposal-vector tree's exploration, kept per mask so
// the merge can replay sequential order regardless of completion order:
// the tree's record, plus its violation or its error, and the property a
// leaf-rule violation broke.
type treeOutcome struct {
	TreeResult
	violation *Violation
	broken    property
	err       error
}

// consensusScripts builds the one-Propose-per-process scripts of a
// proposal vector.
func consensusScripts(proposals []int) [][]types.Invocation {
	scripts := make([][]types.Invocation, len(proposals))
	for p, v := range proposals {
		scripts[p] = []types.Invocation{types.Propose(v)}
	}
	return scripts
}

// exploreTree explores the single execution tree rooted at the proposal
// vector of mask with e, the calling worker's explorer. Each tree gets its
// own decided set and (under Memoize) its own memo contents: e is reset
// for it, so it reuses the storage of the worker's earlier trees but none
// of their entries. A table shared across arbitrary trees would be
// unsound, because memo hits skip the per-leaf agreement/validity checks,
// and validity depends on the tree's proposal vector. Trees in one
// process-permutation orbit are the exception — for them the symmetry
// layer skips exploration entirely and replays the representative's
// outcome (see symmetry.go).
func exploreTree(ctx context.Context, e *explorer, im *program.Implementation, k, mask int, opts Options, ctr *counters, widx int) treeOutcome {
	proposals := ProposalVectorK(mask, im.Procs, k)
	scripts := consensusScripts(proposals)
	decided := make([]bool, k)
	var broken property
	treeOpts := opts
	treeOpts.OnLeaf = func(l *Leaf) error {
		v, fault := checkConsensusLeaf(l, proposals)
		if fault != nil {
			broken = fault.prop
			return fault
		}
		if v >= 0 {
			decided[v] = true
		}
		return nil
	}
	res, err := runTree(ctx, e, im, scripts, treeOpts, ctr, widx)
	if err != nil {
		return treeOutcome{err: err}
	}
	out := treeOutcome{
		TreeResult: TreeResult{
			Mask:      mask,
			Nodes:     res.Nodes,
			Leaves:    res.Leaves,
			MemoHits:  res.MemoHits,
			Depth:     res.Depth,
			MaxAccess: res.MaxAccess,
			OpAccess:  res.OpAccess,
			ProcSteps: res.ProcSteps,
			Degraded:  res.Degraded,
		},
		violation: res.Violation,
		broken:    broken,
	}
	for v, ok := range decided {
		if ok {
			out.Decided = append(out.Decided, v)
		}
	}
	return out
}

// MaxTrees bounds the proposal-vector trees of one consensus run, k^n for
// n processes over k values. ConsensusKContext refuses a larger run with
// ErrBadScripts before it allocates any per-tree state, and waitfreed
// refuses one at admission. The largest run in the repository explores
// 256 trees.
const MaxTrees = 1 << 20

// Trees returns k^procs, the proposal-vector trees of a consensus run of
// procs processes over k values. It refuses fewer than 2 values, and a
// count above MaxTrees, with an error wrapping ErrBadScripts; the product
// is checked before each multiplication, so it never overflows.
func Trees(procs, k int) (int, error) {
	if k < 2 {
		return 0, fmt.Errorf("%w: need at least 2 proposal values, got %d", ErrBadScripts, k)
	}
	trees := 1
	for p := 0; p < procs; p++ {
		if trees > MaxTrees/k {
			return 0, fmt.Errorf("%w: %d processes over %d values exceed %d proposal-vector trees",
				ErrBadScripts, procs, k, MaxTrees)
		}
		trees *= k
	}
	return trees, nil
}

// ConsensusKContext explores every execution of im from every proposal
// vector over 0..k-1 (k^n execution trees; k = 2 is binary consensus) and
// checks agreement, validity, and wait-freedom. Options.OnLeaf and
// RecordHistory are reserved for the checker and must be unset. The trees
// are independent, so they are fanned across min(Options.Parallelism, k^n)
// workers; outcomes are merged in proposal-vector order, which makes the
// report a pure function of the implementation — identical at every
// parallelism level, including the Nodes/Leaves/MemoHits accounting.
//
// Under Options.Symmetry the unit of work becomes the process-permutation
// orbit: one representative tree is explored per orbit and the member
// trees replay its outcome, so the engine performs up to n! times less
// work while the merged report stays byte-identical (see symmetry.go).
//
// Cancellation stops every worker within flushEvery configurations and
// returns ctx.Err() alongside a resumable partial report (Checkpoint and
// Stats only — the Ctrl-C contract). Deadline expiry, Options.MaxNodes,
// and the Options.StallAfter watchdog instead degrade to a
// ConsensusReport with Partial set, a Coverage block, and a resumable
// Checkpoint; the error is nil for deadline and budget stops and a
// *StallError for watchdog stops. Options.CheckpointEvery/OnCheckpoint
// autosave the same checkpoint periodically while the run is in flight.
// If Options.OnProgress is set, one final Stats snapshot is published
// before returning, carrying the partial engine totals.
func ConsensusKContext(ctx context.Context, im *program.Implementation, k int, opts Options) (*ConsensusReport, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.OnLeaf != nil || opts.RecordHistory {
		return nil, fmt.Errorf("%w: the consensus check drives OnLeaf and histories internally", ErrBadOptions)
	}
	roots, err := Trees(im.Procs, k)
	if err != nil {
		return nil, err
	}
	report := &ConsensusReport{
		Procs:     im.Procs,
		Agreement: true,
		Validity:  true,
		WaitFree:  true,
		MaxAccess: make([]int, len(im.Objects)),
		OpAccess:  make([]map[string]int, len(im.Objects)),
		ProcSteps: make([]int, im.Procs),
		Objects:   make([]string, len(im.Objects)),
	}
	for i := range report.OpAccess {
		report.OpAccess[i] = make(map[string]int)
		report.Objects[i] = im.Objects[i].Name
	}

	if opts.Faults.Enabled() {
		model := opts.Faults
		report.Faults = &model
	}

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > roots {
		workers = roots
	}

	// Symmetry reduction: partition the masks into process-permutation
	// orbits and explore one representative per orbit. With symmetry off
	// (or inapplicable) every mask is its own singleton orbit and the
	// worker loop below degenerates to plain per-mask distribution.
	orbits, reduced, err := planOrbits(im, k, roots, opts)
	if err != nil {
		return nil, err
	}

	ctr := newCounters(workers, roots)
	if reduced {
		ctr.orbitsTotal = len(orbits)
	}

	// done[mask] flags outcomes that are complete and safe to read from
	// other goroutines: workers store it (atomically, after writing the
	// outcome) so the autosave supervisor and the partial-coverage merge
	// can snapshot mid-run without racing.
	outcomes := make([]treeOutcome, roots)
	done := make([]atomic.Bool, roots)
	// replayOrbit fills every tree of ob that is not yet done from src, a
	// clean tree of the orbit whose role map onto the representative is
	// srcPerm (nil: src is the representative).
	replayOrbit := func(ob *orbit, src *TreeResult, srcPerm []int) {
		fill := func(mask int, perm []int) {
			if done[mask].Load() {
				return
			}
			outcomes[mask].TreeResult = replayTree(src, mask, srcPerm, perm)
			done[mask].Store(true)
			ctr.treesDone.Add(1)
			ctr.replayedTrees.Add(1)
		}
		fill(ob.rep, nil)
		for i := range ob.members {
			fill(ob.members[i].mask, ob.members[i].perm)
		}
	}

	// Resume: trees recorded in the checkpoint are preloaded and never
	// re-explored; the merge below cannot tell them from live outcomes, so
	// a resumed run reaches the same report as an uninterrupted one.
	// Checkpoints are symmetry-agnostic: a reduced run consumes unreduced
	// checkpoints (and vice versa). Every orbit with a preloaded member is
	// settled here, before any worker starts, by replaying the rest of the
	// orbit from that member (checkpointed trees are always clean); the
	// workers get only the orbits with nothing preloaded.
	if cp := opts.ResumeFrom; cp != nil {
		if err := cp.validateFor(im, k, roots, opts.Faults); err != nil {
			return nil, err
		}
		for _, tr := range cp.Trees {
			outcomes[tr.Mask].TreeResult = tr
			done[tr.Mask].Store(true)
		}
		ctr.treesDone.Add(int64(len(cp.Trees)))
		var pending []orbit
		for _, ob := range orbits {
			// The source: the representative, else the first preloaded member.
			src, srcPerm := ob.rep, []int(nil)
			for i := 0; !done[src].Load() && i < len(ob.members); i++ {
				src, srcPerm = ob.members[i].mask, ob.members[i].perm
			}
			if !done[src].Load() {
				pending = append(pending, ob)
				continue
			}
			replayOrbit(&ob, &outcomes[src].TreeResult, srcPerm)
			ctr.orbitsDone.Add(1)
		}
		orbits = pending
	}

	// The engine's internal run context: soft stops (node budget, stall
	// watchdog) cancel runCtx without touching the caller's ctx, so the
	// post-join dispatch can tell the caller's hard cancellation (resumable
	// error, the Ctrl-C contract) from the engine's own soft stops
	// (partial-coverage report, nil error).
	runCtx, softStop := context.WithCancel(ctx)
	defer softStop()
	ctr.maxNodes = opts.MaxNodes
	ctr.captureKeys = opts.StallAfter > 0
	ctr.softCancel = softStop

	snapshotCP := func() *Checkpoint {
		return buildCheckpoint(im, k, roots, opts.Faults, outcomes, done)
	}
	// workersDone closes when the last worker returns.
	workersDone := make(chan struct{})
	var live atomic.Int64
	live.Store(int64(workers))
	sup := startSupervisor(opts, ctr, im, k, snapshotCP, workersDone)

	// Work distribution: worker w takes orbit w first, and the rest are
	// claimed from next in representative-mask order. The fixed first
	// claim puts every worker to work whatever the goroutines' start
	// order, so each of the min(workers, orbits) explorers fills its
	// tables once, and a run's allocations do not hinge on how the
	// scheduler started them.
	var next atomic.Int64
	next.Store(int64(workers))
	var stop atomic.Int64 // lowest mask whose tree errored or violated
	stop.Store(int64(roots))
	lowerStop := func(mask int) {
		for {
			cur := stop.Load()
			if int64(mask) >= cur || stop.CompareAndSwap(cur, int64(mask)) {
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		go func(widx int) {
			// The worker's one explorer: every tree it claims resets it,
			// so the tables grown by one tree serve the next, and all of
			// it is dropped when the run ends.
			e := new(explorer)
			defer func() {
				ctr.claimBeat(widx, -1)
				if live.Add(-1) == 0 {
					close(workersDone)
				}
			}()
			for idx := widx; ; idx = int(next.Add(1) - 1) {
				if ctxErr(runCtx) != nil {
					return
				}
				// Representatives strictly above the lowest known-bad mask
				// can never be merged (the merge stops there, as a
				// sequential scan would); skipping them only sheds work,
				// never results, because stop only decreases.
				if idx >= len(orbits) || int64(orbits[idx].rep) > stop.Load() {
					return
				}
				ob := &orbits[idx]
				ctr.claimBeat(widx, ob.rep)
				out := &outcomes[ob.rep]
				*out = exploreTree(runCtx, e, im, k, ob.rep, opts, ctr, widx)
				done[ob.rep].Store(true)
				ctr.treesDone.Add(1)
				// Members replay only from a clean representative: a
				// violating or erred one caps the merge at its own mask, so
				// members — all strictly above it, the representative being
				// the orbit minimum — could never be merged, exactly as an
				// unreduced run sheds the masks above its first bad one.
				if out.err != nil || out.violation != nil {
					lowerStop(ob.rep)
				} else {
					replayOrbit(ob, &out.TreeResult, nil)
				}
				ctr.orbitsDone.Add(1)
			}
		}(w)
	}
	// A worker stuck inside user code never polls the context: the
	// watchdog closes abandoned after its grace period so the run can
	// still report (the stuck goroutine reclaims itself if the user code
	// ever returns).
	select {
	case <-workersDone:
	case <-sup.abandoned():
	}
	sup.stop()

	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		// Hard cancellation (the Ctrl-C contract): snapshot the frontier so
		// the caller can resume. The partial report carries ONLY the
		// checkpoint and the engine stats; no verdict fields are meaningful
		// on it.
		stats := ctr.snapshot()
		partial := &ConsensusReport{
			Procs:      im.Procs,
			Checkpoint: snapshotCP(),
			Stats:      &stats,
		}
		return partial, err
	}

	stallErr := sup.stallErr()
	reason := ""
	switch {
	case ctxErr(ctx) != nil: // deadline expiry: degrade, don't error
		reason = CoverageDeadline
	case ctr.tripReason.Load() == tripStall:
		reason = CoverageStall
	case ctr.tripReason.Load() == tripNodeBudget:
		reason = CoverageNodeBudget
	}

	if reason == "" {
		// Merge in mask order, exactly as the sequential scan would have:
		// all trees up to and including the first bad one contribute to the
		// report; later trees (possibly explored speculatively) are
		// dropped.
		last := roots - 1
		if bad := int(stop.Load()); bad < roots {
			last = bad
		}
		if err := mergeTrees(report, outcomes, last, im, k); err != nil {
			return nil, err
		}
		stats := ctr.snapshot()
		report.Stats = &stats
		return report, nil
	}

	// Soft stop: merge the contiguous prefix of cleanly finished trees and
	// degrade to a partial-coverage report instead of erroring, mirroring
	// the Degraded memo-budget contract. Trees aborted by the soft
	// cancellation itself are unfinished, not failed; a genuinely erred
	// tree inside the prefix still surfaces as an error, and a violation
	// inside the prefix makes the run conclusive.
	prefix := 0
	for prefix < roots && done[prefix].Load() && !abortedOutcome(&outcomes[prefix]) {
		prefix++
	}
	if err := mergeTrees(report, outcomes, prefix-1, im, k); err != nil {
		return nil, err
	}
	stats := ctr.snapshot()
	report.Stats = &stats
	if report.Violation != nil || prefix == roots {
		// Conclusive despite the early stop: a counterexample in the merged
		// prefix refutes the implementation no matter what was left
		// unexplored, and a full prefix IS the complete run (the stop
		// tripped after the last tree finished).
		if stallErr != nil {
			return report, stallErr
		}
		return report, nil
	}
	report.Partial = true
	report.Coverage = &Coverage{
		Reason:          reason,
		TreesDone:       int(ctr.treesDone.Load()),
		TreesTotal:      roots,
		TreesMerged:     prefix,
		Nodes:           ctr.nodes.Load(),
		DeepestFrontier: int(ctr.maxDepth.Load()),
	}
	report.Checkpoint = snapshotCP()
	if stallErr != nil {
		return report, stallErr
	}
	return report, nil
}

// abortedOutcome reports whether a tree's error is the run's own
// cancellation unwinding (an unfinished tree), as opposed to a genuine
// exploration failure.
func abortedOutcome(out *treeOutcome) bool {
	return out.err != nil &&
		(errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded))
}

// mergeTrees folds outcomes[0..last] into report in mask order — exactly
// the scan a sequential run performs — stopping at the first violating
// tree and classifying its violation. The error of an erred tree is
// returned wrapped with the tree's proposal vector.
func mergeTrees(report *ConsensusReport, outcomes []treeOutcome, last int, im *program.Implementation, k int) error {
	decided := make([]bool, k)
	for mask := 0; mask <= last; mask++ {
		out := &outcomes[mask]
		report.Roots++
		if out.err != nil {
			return fmt.Errorf("proposals %v: %w", ProposalVectorK(mask, im.Procs, k), out.err)
		}
		mergeResult(report, &out.TreeResult)
		for _, v := range out.Decided {
			decided[v] = true
		}
		if out.violation != nil {
			report.Violation = out.violation
			report.ViolationProposals = ProposalVectorK(mask, im.Procs, k)
			switch out.violation.Kind {
			case KindDepthExceeded, KindCycle, KindBlockedBySurvivorStarvation,
				KindBlockedByRecoveryDivergence:
				report.WaitFree = false
			case KindLeafReject, KindInvalidAfterCrash, KindDecisionChangedAfterRecovery:
				if out.broken == propValidity {
					report.Validity = false
				} else {
					report.Agreement = false
				}
			}
			break
		}
	}
	for v, ok := range decided {
		if ok {
			report.Decisions = append(report.Decisions, v)
		}
	}
	return nil
}

// property is a consensus property a leaf can break, by the name the
// violation detail gives it.
type property string

const propAgreement, propValidity property = "agreement", "validity"

// leafFault is a leaf that broke the consensus leaf rule: the property it
// broke, and how. Its message is the violation detail.
type leafFault struct {
	prop   property
	detail string
}

func (f *leafFault) Error() string { return string(f.prop) + ": " + f.detail }

// checkConsensusLeaf checks one completed execution: every surviving
// process decided, all survivors agree, and the decision was proposed. It
// returns the decision, or -1 if every process crashed. Crashed processes
// (fault exploration) are exempt — they need not decide, and their
// proposals still count for validity, matching crash-stop consensus.
func checkConsensusLeaf(l *Leaf, proposals []int) (int, *leafFault) {
	var first types.Response
	firstProc := -1
	for p, id := range l.c.procs {
		if l.e.proc(id).Crashed {
			continue
		}
		resps := l.e.pathResps(p)
		if len(resps) == 0 {
			return -1, &leafFault{propAgreement, fmt.Sprintf("process %d produced no response", p)}
		}
		r := l.e.resps.vals[resps[len(resps)-1]]
		if r.Label != types.LabelVal {
			return -1, &leafFault{propAgreement, fmt.Sprintf("process %d answered %v, not a value", p, r)}
		}
		if firstProc < 0 {
			first, firstProc = r, p
		} else if r != first {
			return -1, &leafFault{propAgreement,
				fmt.Sprintf("process %d decided %v but process %d decided %v", firstProc, first, p, r)}
		}
	}
	if firstProc < 0 {
		// Every process crashed; nothing was decided and nothing to check.
		return -1, nil
	}
	if !slices.Contains(proposals, first.Val) {
		return -1, &leafFault{propValidity, fmt.Sprintf("decided %d, proposals %v", first.Val, proposals)}
	}
	return first.Val, nil
}

func mergeResult(report *ConsensusReport, res *TreeResult) {
	report.Nodes += res.Nodes
	report.Leaves += res.Leaves
	report.MemoHits += res.MemoHits
	if res.Depth > report.Depth {
		report.Depth = res.Depth
	}
	for o, v := range res.MaxAccess {
		if v > report.MaxAccess[o] {
			report.MaxAccess[o] = v
		}
	}
	for o, ops := range res.OpAccess {
		for op, v := range ops {
			if v > report.OpAccess[o][op] {
				report.OpAccess[o][op] = v
			}
		}
	}
	for p, v := range res.ProcSteps {
		if v > report.ProcSteps[p] {
			report.ProcSteps[p] = v
		}
	}
	if res.Degraded {
		report.Degraded = true
	}
}
