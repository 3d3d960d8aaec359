// Command genparity regenerates the parity fixtures:
//
//   - testdata/flatparity: canonicalized ConsensusReport JSON for a grid
//     of protocols, memoization settings, and fault modes, plus a mid-run
//     checkpoint file. The fixtures pin the engine's observable output
//     across hot-path rewrites — TestFlatLayoutParity asserts that today's
//     engine reproduces them byte-for-byte at every parallelism and
//     symmetry level.
//   - testdata/elimparity: the canonical KindElimination waitfree.Report
//     JSON of the Theorem 5 pipeline on both of its routes (Section 5.2
//     witness, Section 5.3 substrate) and through the Section 4.1 compile.
//     TestEliminationParity replays each at several parallelism levels.
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

	"waitfree"
	"waitfree/internal/consensus"
	"waitfree/internal/durable"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/multivalue"
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

// ElimCase is one fixture of the elimination grid: the Theorem 5 pipeline
// on Impl, via the Section 5.3 route when Substrate is set and the Section
// 5.2 witness otherwise. The golden is the canonical report of a
// sequential run.
type ElimCase struct {
	Name      string
	Impl      func() *program.Implementation
	Substrate func() *program.Implementation
	Memoize   bool
}

// ElimCases returns the elimination grid. Shared with the parity test via
// identical construction.
func ElimCases() []ElimCase {
	det := []struct {
		name string
		impl func() *program.Implementation
	}{
		{"tas", consensus.TAS2},
		{"queue", consensus.Queue2},
		{"stack", consensus.Stack2},
		{"faa", consensus.FAA2},
		{"swap", consensus.Swap2},
	}
	var out []ElimCase
	for _, d := range det {
		out = append(out,
			ElimCase{Name: d.name, Impl: d.impl},
			ElimCase{Name: d.name + "_memo", Impl: d.impl, Memoize: true})
	}
	return append(out,
		ElimCase{Name: "noisysticky-r_53", Impl: consensus.NoisySticky2R, Substrate: consensus.NoisySticky2, Memoize: true},
		ElimCase{Name: "tas_53_noisysticky", Impl: consensus.TAS2, Substrate: consensus.NoisySticky2, Memoize: true},
		ElimCase{Name: "multivalue3_srsw", Impl: func() *program.Implementation { return multivalue.FromBinarySRSW(3) }, Memoize: true},
		ElimCase{Name: "casregister3", Impl: consensus.CASRegister3, Memoize: true},
	)
}

// Request builds the Check request of a case at the given parallelism.
func (c ElimCase) Request(parallelism int) waitfree.Request {
	req := waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: c.Impl(),
		Explore:        explore.Options{Memoize: c.Memoize, Parallelism: parallelism},
	}
	if c.Substrate != nil {
		req.Substrate = c.Substrate()
	}
	return req
}

// CanonicalReportJSON renders a Check report canonicalized (Elapsed and
// Stats stripped), indented, with a trailing newline.
func CanonicalReportJSON(rep *waitfree.Report) ([]byte, error) {
	rep.Canonicalize()
	data, err := json.MarshalIndent(rep, "", "  ")
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

	elimDir := filepath.Join("testdata", "elimparity")
	if err := os.MkdirAll(elimDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, c := range ElimCases() {
		rep, err := waitfree.Check(context.Background(), c.Request(1))
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		data, err := CanonicalReportJSON(rep)
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		path := filepath.Join(elimDir, c.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
}
