// Command genparity regenerates the flat-layout parity fixtures under
// testdata/flatparity: canonicalized ConsensusReport JSON for a grid of
// protocols, memoization settings, and fault modes, plus a mid-run
// checkpoint file. The fixtures pin the engine's observable output across
// hot-path rewrites — TestFlatLayoutParity asserts that today's engine
// reproduces them byte-for-byte at every parallelism and symmetry level.
//
// Regenerate (only when the report format itself changes, never to paper
// over an engine difference):
//
//	go run ./scripts/genparity
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"waitfree/internal/consensus"
	"waitfree/internal/durable"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/program"
)

// Case is one fixture of the parity grid. The JSON golden is the report of
// a sequential, symmetry-off run; the parity test replays the case at
// every parallelism and symmetry setting and demands identical bytes.
type Case struct {
	Name    string
	Impl    func() *program.Implementation
	K       int
	Memoize bool
	Faults  faults.Model
}

// Cases returns the fixture grid. Shared with the parity test via
// identical construction (the test rebuilds the same grid).
func Cases() []Case {
	crashStop := faults.Model{Mode: faults.CrashStop, MaxCrashes: 1}
	crashRecovery := faults.Model{Mode: faults.CrashRecovery, MaxCrashes: 1, MaxRecoveries: 1}
	return []Case{
		{Name: "sticky3", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2, Memoize: true},
		{Name: "sticky3_nomemo", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2, Memoize: false},
		{Name: "sticky3_crashstop", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2, Memoize: true, Faults: crashStop},
		{Name: "sticky3_crashrecovery", Impl: func() *program.Implementation { return consensus.Sticky(3) }, K: 2, Memoize: true, Faults: crashRecovery},
		{Name: "cas3", Impl: func() *program.Implementation { return consensus.CAS(3) }, K: 2, Memoize: true},
		{Name: "cas3_k3", Impl: func() *program.Implementation { return consensus.CAS(3) }, K: 3, Memoize: true},
		{Name: "cas3_crashstop_nomemo", Impl: func() *program.Implementation { return consensus.CAS(3) }, K: 2, Memoize: false, Faults: crashStop},
		{Name: "tas2_crashrecovery", Impl: consensus.TAS2, K: 2, Memoize: true, Faults: crashRecovery},
		{Name: "queue2_crashstop", Impl: consensus.Queue2, K: 2, Memoize: true, Faults: crashStop},
		{Name: "naiveregister2", Impl: consensus.NaiveRegister2, K: 2, Memoize: true},
		{Name: "fetchcons3", Impl: func() *program.Implementation { return consensus.FetchCons(3) }, K: 2, Memoize: true},
	}
}

// Options builds the exploration options of a case at the given
// parallelism and symmetry mode.
func (c Case) Options(parallelism int, symmetry explore.SymmetryMode) explore.Options {
	return explore.Options{
		Memoize:     c.Memoize,
		Faults:      c.Faults,
		Parallelism: parallelism,
		Symmetry:    symmetry,
	}
}

// CanonicalJSON renders a report with its run-varying observational fields
// (Stats, Checkpoint) stripped, indented — the byte form the goldens pin.
func CanonicalJSON(rep *explore.ConsensusReport) ([]byte, error) {
	clone := *rep
	clone.Stats = nil
	clone.Checkpoint = nil
	data, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ResumeFixture describes the mid-run checkpoint fixture: a sequential
// sticky3 run stopped by a node budget, its checkpoint saved verbatim. The
// parity test resumes from the file and must land on the sticky3 golden.
const (
	ResumeCase     = "sticky3"
	ResumeFile     = "resume_sticky3.wfcp"
	resumeMaxNodes = 300
)

func main() {
	dir := filepath.Join("testdata", "flatparity")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, c := range Cases() {
		rep, err := explore.ConsensusKContext(context.Background(), c.Impl(), c.K, c.Options(1, explore.SymmetryOff))
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		data, err := CanonicalJSON(rep)
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		path := filepath.Join(dir, c.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}

	// The resume fixture: stop the ResumeCase run early and save its
	// checkpoint. Sequential and node-budgeted, so the captured frontier is
	// deterministic.
	var rc Case
	for _, c := range Cases() {
		if c.Name == ResumeCase {
			rc = c
		}
	}
	opts := rc.Options(1, explore.SymmetryOff)
	opts.MaxNodes = resumeMaxNodes
	rep, err := explore.ConsensusKContext(context.Background(), rc.Impl(), rc.K, opts)
	if err != nil {
		log.Fatalf("resume fixture: %v", err)
	}
	if !rep.Partial || rep.Checkpoint == nil {
		log.Fatalf("resume fixture run was not partial (nodes=%d); lower resumeMaxNodes", rep.Nodes)
	}
	path := filepath.Join(dir, ResumeFile)
	if err := durable.SaveFS(nil, path, rep.Checkpoint); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d/%d trees)\n", path, len(rep.Checkpoint.Trees), rep.Checkpoint.Roots)
}
