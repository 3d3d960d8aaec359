package explore

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
)

// cancelMidRun runs a consensus check sequentially and cancels it from the
// progress callback as soon as at least one tree (but not all) is done,
// returning the checkpoint of the partial report. CASRegister3 explores 8
// trees at ~25ms each, so a 1ms tick reliably lands mid-run.
func cancelMidRun(t *testing.T, opts Options) *Checkpoint {
	t.Helper()
	im := consensus.CASRegister3()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Parallelism = 1
	opts.ProgressInterval = time.Millisecond
	opts.OnProgress = func(s Stats) {
		if s.TreesDone >= 1 {
			cancel()
		}
	}
	rep, err := ConsensusKContext(ctx, im, 2, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Checkpoint == nil {
		t.Fatal("cancelled run carries no checkpoint")
	}
	return rep.Checkpoint
}

// TestCheckpointResumeEquality is the acceptance test for checkpoint and
// resume: cancel a run mid-flight, round-trip the checkpoint through its
// JSON form (the CLIs' -checkpoint file), resume, and require the resumed
// report to be deep-equal to an uninterrupted run's — verdicts, bounds,
// and the Nodes/Leaves accounting alike.
func TestCheckpointResumeEquality(t *testing.T) {
	im := consensus.CASRegister3()
	for _, fm := range []faults.Model{{}, {MaxCrashes: 1},
		{MaxCrashes: 1, Mode: faults.CrashRecovery, MaxRecoveries: 1}} {
		base := Options{Memoize: true, Faults: fm}
		cp := cancelMidRun(t, base)
		if cp.Faults != fm {
			t.Fatalf("checkpoint fault model %v, want %v", cp.Faults, fm)
		}
		if len(cp.Trees) == 0 {
			t.Fatalf("checkpoint recorded no finished trees: %v", cp)
		}

		blob, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		var restored Checkpoint
		if err := json.Unmarshal(blob, &restored); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cp, &restored) {
			t.Fatalf("checkpoint does not survive its JSON round-trip:\nbefore: %+v\nafter:  %+v", cp, &restored)
		}

		resumeOpts := base
		resumeOpts.ResumeFrom = &restored
		resumeOpts.Parallelism = 2
		resumed, err := ConsensusKContext(context.Background(), im, 2, resumeOpts)
		if err != nil {
			t.Fatal(err)
		}
		uninterrupted, err := ConsensusKContext(context.Background(), im, 2, base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripStats(resumed), stripStats(uninterrupted)) {
			t.Errorf("faults=%v: resumed report differs from uninterrupted run\nresumed:       %+v\nuninterrupted: %+v",
				fm, resumed, uninterrupted)
		}
		if resumed.Checkpoint != nil {
			t.Errorf("completed resumed run still carries a checkpoint")
		}
	}
}

// TestCheckpointResumeViolating checks resume on a protocol whose
// exploration ends in a violation: the resumed run must reproduce the
// exact violation report of an uninterrupted run.
func TestCheckpointResumeViolating(t *testing.T) {
	im := consensus.NaiveRegister2()
	uninterrupted, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	// An empty checkpoint of the right shape resumes from nothing.
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Impl:    im.Name,
		Procs:   im.Procs,
		Values:  2,
		Roots:   4,
	}
	resumed, err := ConsensusKContext(context.Background(), im, 2, Options{Memoize: true, ResumeFrom: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripStats(resumed), stripStats(uninterrupted)) {
		t.Errorf("resumed violating report differs\nresumed:       %+v\nuninterrupted: %+v", resumed, uninterrupted)
	}
	if resumed.Violation == nil {
		t.Fatal("resumed run lost the violation")
	}
}

// TestResumeFromValidation pins every fingerprint check on the resume
// path: a checkpoint from a different implementation, shape, version, or
// fault model — or one that is internally malformed — must be rejected
// with ErrBadCheckpoint before any tree is explored.
func TestResumeFromValidation(t *testing.T) {
	im := consensus.TAS2()
	good := func() *Checkpoint {
		return &Checkpoint{
			Version: CheckpointVersion,
			Impl:    im.Name,
			Procs:   2,
			Values:  2,
			Roots:   4,
		}
	}
	if _, err := ConsensusKContext(context.Background(), im, 2, Options{ResumeFrom: good()}); err != nil {
		t.Fatalf("well-formed empty checkpoint rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Checkpoint)
	}{
		{"version", func(c *Checkpoint) { c.Version = CheckpointVersion + 1 }},
		{"impl", func(c *Checkpoint) { c.Impl = "someone-else" }},
		{"procs", func(c *Checkpoint) { c.Procs = 3 }},
		{"values", func(c *Checkpoint) { c.Values = 3 }},
		{"roots", func(c *Checkpoint) { c.Roots = 8 }},
		{"fault model", func(c *Checkpoint) { c.Faults = faults.Model{MaxCrashes: 1} }},
		{"mask range", func(c *Checkpoint) { c.Trees = []TreeResult{{Mask: 4}} }},
		{"duplicate mask", func(c *Checkpoint) {
			// TAS2 declares 3 objects (elect + two prefer bits).
			tr := TreeResult{Mask: 1, MaxAccess: []int{0, 0, 0}, OpAccess: []map[string]int{{}, {}, {}}, ProcSteps: []int{0, 0}}
			c.Trees = []TreeResult{tr, tr}
		}},
		{"bound shape", func(c *Checkpoint) {
			c.Trees = []TreeResult{{Mask: 0, MaxAccess: []int{0}, OpAccess: []map[string]int{{}}, ProcSteps: []int{0, 0}}}
		}},
		{"excess trees", func(c *Checkpoint) {
			tr := TreeResult{MaxAccess: []int{0, 0, 0}, OpAccess: []map[string]int{{}, {}, {}}, ProcSteps: []int{0, 0}}
			for mask := 0; mask < c.Roots+1; mask++ {
				tr.Mask = mask % c.Roots // more trees than roots, before the per-tree scan trips on the reuse
				c.Trees = append(c.Trees, tr)
			}
		}},
	}
	for _, m := range mutations {
		cp := good()
		m.mut(cp)
		if _, err := ConsensusKContext(context.Background(), im, 2, Options{ResumeFrom: cp}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", m.name, err)
		}
	}

	// Single-tree runs have no frontier: Run must reject ResumeFrom.
	scripts := proposalScripts([]int{0, 1})
	if _, err := RunContext(context.Background(), im, scripts, Options{ResumeFrom: good()}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("Run accepted ResumeFrom: %v", err)
	}
}

// TestResumeRejectsForgedTrees pins validateFor's per-tree checks. A
// checkpointed tree is violation-free, so its decisions are strictly
// increasing values from its own proposal vector, and no counter or bound
// is negative. A tree breaking either is rejected with ErrBadCheckpoint
// instead of being merged into a report that could still pass.
func TestResumeRejectsForgedTrees(t *testing.T) {
	im := consensus.CAS(2)
	genuine := func(mask int) TreeResult {
		out := exploreTree(context.Background(), new(explorer), im, 2, mask, Options{}, newCounters(1, 4), 0)
		if out.err != nil || out.violation != nil {
			t.Fatalf("mask %d: err %v, violation %v", mask, out.err, out.violation)
		}
		return out.TreeResult
	}
	resume := func(tr TreeResult) error {
		cp := &Checkpoint{Version: CheckpointVersion, Impl: im.Name, Procs: 2, Values: 2, Roots: 4, Trees: []TreeResult{tr}}
		_, err := ConsensusKContext(context.Background(), im, 2, Options{ResumeFrom: cp})
		return err
	}
	if err := resume(genuine(1)); err != nil {
		t.Fatalf("genuine tree rejected: %v", err)
	}
	// Mask 0 proposes [0 0]; mask 1 proposes [1 0] and decides [0 1].
	forgeries := []struct {
		name  string
		mask  int
		forge func(*TreeResult)
	}{
		{"repeated decision", 1, func(tr *TreeResult) { tr.Decided = []int{0, 0} }},
		{"unsorted decisions", 1, func(tr *TreeResult) { tr.Decided = []int{1, 0} }},
		{"decision not proposed", 0, func(tr *TreeResult) { tr.Decided = []int{1} }},
		{"negative decision", 1, func(tr *TreeResult) { tr.Decided = []int{-3, 0} }},
		{"decision out of range", 1, func(tr *TreeResult) { tr.Decided = []int{0, 7} }},
		{"negative nodes", 1, func(tr *TreeResult) { tr.Nodes = -5 }},
		{"negative leaves", 1, func(tr *TreeResult) { tr.Leaves = -1 }},
		{"negative memo hits", 1, func(tr *TreeResult) { tr.MemoHits = -1 }},
		{"negative depth", 1, func(tr *TreeResult) { tr.Depth = -1 }},
		{"negative max access", 1, func(tr *TreeResult) { tr.MaxAccess[0] = -1 }},
		{"negative op access", 1, func(tr *TreeResult) { tr.OpAccess[0] = map[string]int{"cas": -1} }},
		{"negative proc steps", 1, func(tr *TreeResult) { tr.ProcSteps[1] = -1 }},
	}
	for _, f := range forgeries {
		t.Run(f.name, func(t *testing.T) {
			tr := genuine(f.mask)
			f.forge(&tr)
			if err := resume(tr); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("err = %v, want ErrBadCheckpoint", err)
			}
		})
	}
}

// TestResumeRejectsUnexploredTrees pins the checks that a checkpointed
// tree was explored at all: every exploration enters its root, reaches a
// leaf, writes an op_access map per object, and decides at its fault-free
// leaf. Each forgery of a genuine CAS(3) tree for mask 1 breaks one of
// them, and the last is a tree no exploration touched; resuming from any
// is ErrBadCheckpoint, where merging it would undercount the report's
// nodes and leaves.
func TestResumeRejectsUnexploredTrees(t *testing.T) {
	im := consensus.CAS(3)
	genuine := func() TreeResult {
		out := exploreTree(context.Background(), new(explorer), im, 2, 1, Options{}, newCounters(1, 8), 0)
		if out.err != nil || out.violation != nil {
			t.Fatalf("err %v, violation %v", out.err, out.violation)
		}
		return out.TreeResult
	}
	resume := func(tr TreeResult) error {
		cp := &Checkpoint{Version: CheckpointVersion, Impl: im.Name, Procs: 3, Values: 2, Roots: 8, Trees: []TreeResult{tr}}
		_, err := ConsensusKContext(context.Background(), im, 2, Options{ResumeFrom: cp})
		return err
	}
	if err := resume(genuine()); err != nil {
		t.Fatalf("genuine tree rejected: %v", err)
	}
	forgeries := []struct {
		name  string
		forge func(*TreeResult)
	}{
		{"null op_access entry", func(tr *TreeResult) { tr.OpAccess[0] = nil }},
		{"no nodes", func(tr *TreeResult) { tr.Nodes = 0 }},
		{"no leaves", func(tr *TreeResult) { tr.Leaves = 0 }},
		{"no decisions", func(tr *TreeResult) { tr.Decided = nil }},
		{"never explored", func(tr *TreeResult) {
			*tr = TreeResult{
				Mask:      1,
				MaxAccess: make([]int, len(im.Objects)),
				OpAccess:  make([]map[string]int, len(im.Objects)),
				ProcSteps: make([]int, im.Procs),
			}
		}},
	}
	for _, f := range forgeries {
		t.Run(f.name, func(t *testing.T) {
			tr := genuine()
			f.forge(&tr)
			if err := resume(tr); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("err = %v, want ErrBadCheckpoint", err)
			}
		})
	}
}

// TestCheckpointRemainingClamped pins Remaining on malformed counts: a
// checkpoint claiming more trees than roots (rejected by validateFor, but
// Remaining is also called on display paths before validation) must report
// zero, not a negative count.
func TestCheckpointRemainingClamped(t *testing.T) {
	cp := &Checkpoint{Roots: 8, Trees: make([]TreeResult, 3)}
	if got := cp.Remaining(); got != 5 {
		t.Errorf("Remaining() = %d, want 5", got)
	}
	cp = &Checkpoint{Roots: 2, Trees: make([]TreeResult, 5)}
	if got := cp.Remaining(); got != 0 {
		t.Errorf("Remaining() on an overfull checkpoint = %d, want 0", got)
	}
}

// FuzzCheckpointValidate feeds checkpoint JSON to the resume path of two
// fault-free 2-valued runs, TAS2 and CAS(3). Bytes that do not decode are
// rejected there; a decoded checkpoint that validateFor refuses must be
// refused with ErrBadCheckpoint; one it accepts must resume through
// ConsensusKContext, with and without symmetry reduction, without error.
// Nothing may panic.
func FuzzCheckpointValidate(f *testing.F) {
	runs := []*program.Implementation{consensus.TAS2(), consensus.CAS(3)}
	for _, seed := range checkpointSeeds(f, runs) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, im := range runs {
			var cp Checkpoint
			if json.Unmarshal(data, &cp) != nil {
				return
			}
			if err := cp.validateFor(im, 2, 1<<im.Procs, faults.Model{}); err != nil {
				if !errors.Is(err, ErrBadCheckpoint) {
					t.Fatalf("%s: refusal %v does not wrap ErrBadCheckpoint", im.Name, err)
				}
				continue
			}
			for _, sym := range []SymmetryMode{SymmetryOff, SymmetryAuto} {
				opts := Options{Memoize: true, Symmetry: sym, ResumeFrom: &cp}
				if _, err := ConsensusKContext(context.Background(), im, 2, opts); err != nil {
					t.Fatalf("%s (symmetry %v): a validated checkpoint did not resume: %v", im.Name, sym, err)
				}
			}
		}
	})
}

// checkpointSeeds is FuzzCheckpointValidate's corpus: the trees of the
// flatparity resume checkpoint (a Sticky(3) run) as recorded and
// re-targeted at each run, genuine TAS2 trees, forgeries of both, and a
// few malformed documents.
func checkpointSeeds(f *testing.F, runs []*program.Implementation) [][]byte {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "flatparity", "resume_sticky3.wfcp"))
	if err != nil {
		f.Fatal(err)
	}
	var sticky []TreeResult
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "tree "); ok {
			var tr TreeResult
			_, body, _ := strings.Cut(rest, " ")
			if err := json.Unmarshal([]byte(body), &tr); err != nil {
				f.Fatal(err)
			}
			sticky = append(sticky, tr)
		}
	}
	var tas []TreeResult
	for mask := 0; mask < 3; mask++ {
		out := exploreTree(context.Background(), new(explorer), consensus.TAS2(), 2, mask, Options{}, newCounters(1, 4), 0)
		if out.err != nil || out.violation != nil {
			f.Fatalf("TAS2 mask %d: err %v, violation %v", mask, out.err, out.violation)
		}
		tas = append(tas, out.TreeResult)
	}
	var seeds [][]byte
	add := func(cp Checkpoint) {
		b, err := json.Marshal(&cp)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	checkpoint := func(impl string, procs int, trees []TreeResult) Checkpoint {
		return Checkpoint{Version: CheckpointVersion, Impl: impl, Procs: procs, Values: 2, Roots: 1 << procs, Trees: trees}
	}
	add(checkpoint("sticky-consensus", 3, sticky))
	for _, im := range runs {
		add(checkpoint(im.Name, im.Procs, sticky))
		add(checkpoint(im.Name, im.Procs, tas))
	}
	forge := func(trees []TreeResult, i int, edit func(*TreeResult)) []TreeResult {
		out := make([]TreeResult, len(trees))
		for j := range trees {
			out[j] = trees[j].clone()
		}
		edit(&out[i])
		return out
	}
	cas := runs[1].Name
	add(checkpoint(cas, 3, forge(sticky, 1, func(tr *TreeResult) { tr.Mask = 0 })))
	add(checkpoint(cas, 3, forge(sticky, 1, func(tr *TreeResult) { tr.Mask = 8 })))
	add(checkpoint(cas, 3, forge(sticky, 2, func(tr *TreeResult) { tr.Nodes = -1 })))
	add(checkpoint(cas, 3, forge(sticky, 3, func(tr *TreeResult) { tr.Decided = []int{1, 0} })))
	add(checkpoint(cas, 3, forge(sticky, 0, func(tr *TreeResult) { tr.OpAccess[0] = nil })))
	add(checkpoint(cas, 3, forge(sticky, 0, func(tr *TreeResult) { tr.ProcSteps = nil })))
	add(checkpoint(runs[0].Name, 2, forge(tas, 2, func(tr *TreeResult) { tr.OpAccess[1] = map[string]int{"write": -1} })))
	add(checkpoint(runs[0].Name, 2, append(tas, tas...)))
	over := checkpoint(cas, 3, sticky)
	over.Version = CheckpointVersion + 1
	add(over)
	seeds = append(seeds, nil, []byte("null"), []byte("{}"), []byte(`{"version":1,"trees":[{}]}`), seeds[1][:len(seeds[1])/2])
	return seeds
}
