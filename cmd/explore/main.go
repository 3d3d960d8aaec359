// Command explore model-checks one of the built-in consensus protocols:
// it enumerates every execution tree (one per proposal vector, as in
// Section 4.2 of Bazzi-Neiger-Peterson), checks agreement, validity, and
// wait-freedom, and prints the tree statistics and per-object access
// bounds.
//
// Usage:
//
//	explore [-protocol NAME] [-procs N] [-memoize] [-valency] [-dot]
//	        [-timeout D] [-json] [-cache DIR]
//	        [-parallel N] [-progress D] [-symmetry MODE]
//	        [-faults] [-max-crashes N] [-fault-mode MODE] [-max-recoveries N]
//	        [-stall-after D] [-max-nodes N] [-memo-budget N] [-memo-spill DIR]
//	        [-checkpoint FILE] [-checkpoint-every D]
//
// With -faults the explorer additionally enumerates every crash schedule
// (up to -max-crashes per execution) and checks that the survivors still
// agree on a valid value. With -checkpoint a cancelled run (Ctrl-C) or a
// run stopped early (-timeout, -max-nodes, -stall-after) writes its
// resumable state to FILE; rerunning the same command picks up where it
// left off. -checkpoint-every additionally rewrites FILE durably
// (checksummed, atomic-rename) at that interval while the run is in
// flight, so even a SIGKILLed run loses at most one interval of work; a
// corrupted FILE is detected on load and its longest valid prefix is
// resumed. -timeout and -max-nodes stop an oversized run with a
// partial-coverage report instead of an error dump; -stall-after flags a
// worker that stops making progress (a wedged spec) with the exact
// configuration it was stuck on. -symmetry (off, auto, require;
// default auto) explores one execution tree per process-permutation
// orbit when the protocol is process-symmetric — the report is identical,
// only the work shrinks. -cache DIR serves repeat (and process-permuted)
// requests from the content-addressed result cache with byte-identical
// JSON, storing fresh conclusive verdicts on the way out; resumed and
// partial runs bypass it. -dot reads only -protocol and -procs and refuses
// any other flag; -valency prints text and refuses -json.
//
// Protocols come from the waitfree.Protocols registry: tas, queue, stack,
// faa, swap, weakleader, naive (incorrect, registers only), casregister3,
// noisysticky, noisysticky-r, and the register-free
// cas/sticky/augqueue/fetchcons (which honor -procs).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"waitfree"
	"waitfree/internal/cliutil"
	"waitfree/internal/explore"
	"waitfree/internal/types"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine renders err for stderr behind the command's "explore: "
// prefix, once: the engine's errors already carry it.
func errorLine(err error) string {
	if msg := err.Error(); strings.HasPrefix(msg, "explore: ") {
		return msg
	}
	return "explore: " + err.Error()
}

// protocolNames renders the registry's names for flag help and errors.
func protocolNames() string {
	var names []string
	for _, p := range waitfree.Protocols() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func run(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	name := fs.String("protocol", "tas", "protocol to check: "+protocolNames())
	procs := fs.Int("procs", 2, "process count for the scalable protocols (cas, sticky, augqueue, fetchcons)")
	memoize := fs.Bool("memoize", false, "memoize configurations")
	valency := fs.Bool("valency", false, "run the FLP/Herlihy valency analysis on mixed proposals")
	dot := fs.Bool("dot", false, "print the mixed-proposal execution tree as Graphviz DOT and exit")
	common := cliutil.Register(fs, cliutil.Output|cliutil.Engine|cliutil.Checkpoint)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -dot draws one tree and exits before any run: it reads -protocol and
	// -procs alone, so any other flag set with it would be ignored.
	if *dot {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "dot" && f.Name != "protocol" && f.Name != "procs" {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-dot reads only -protocol and -procs; drop %s", strings.Join(ignored, " "))
		}
	}
	// The valency analysis prints human-readable text only.
	if *valency && common.JSON {
		return errors.New("-valency has no JSON form; drop -json or -valency")
	}

	info, ok := waitfree.LookupProtocol(*name)
	if !ok {
		return fmt.Errorf("unknown protocol %q (have %s)", *name, protocolNames())
	}
	// -procs only steers the scalable protocols; for fixed-size ones it is
	// ignored, as it always has been (the default of 2 must not reject
	// casregister3).
	procsArg := 0
	if info.Scalable() {
		procsArg = *procs
	}
	im, err := info.Build(procsArg)
	if err != nil {
		return err
	}

	if *dot {
		scripts := make([][]types.Invocation, im.Procs)
		for p := range scripts {
			scripts[p] = []types.Invocation{types.Propose(p % 2)}
		}
		out, err := explore.Dot(im, scripts, 4000)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	resume, err := common.LoadCheckpoint()
	if err != nil {
		// A corrupt checkpoint file (torn write, truncation, bit rot) may
		// still carry a verified prefix of finished trees: resume from it
		// rather than discarding everything the dead run had saved.
		var ce *waitfree.CorruptCheckpointError
		if errors.As(err, &ce) && ce.Salvaged != nil && len(ce.Salvaged.Trees) > 0 {
			fmt.Fprintf(os.Stderr, "explore: %v\nexplore: resuming from the salvaged prefix (%d trees)\n",
				err, len(ce.Salvaged.Trees))
			resume = ce.Salvaged
		} else {
			return err
		}
	}
	if resume != nil {
		fmt.Fprintf(os.Stderr, "explore: resuming from %s (%s)\n", common.Checkpoint, resume)
	}

	exOpts, err := common.Options(explore.Options{Memoize: *memoize, ResumeFrom: resume})
	if err != nil {
		return err
	}
	rep, err := common.Run(waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: im,
		Explore:        exOpts,
	}, func(rep *waitfree.Report) error {
		if rep.Consensus.Partial {
			fmt.Print(rep.String())
			return nil
		}
		fmt.Printf("checking %v\n\n", im)
		fmt.Print(rep.String())
		if v := rep.Consensus.Violation; v != nil {
			fmt.Printf("\ncounterexample lanes (proposals %v):\n%s\n",
				rep.Consensus.ViolationProposals, explore.FormatLanes(v.Schedule, im))
		}
		return nil
	})
	// save keeps the resumable state of a run that stopped short in the
	// -checkpoint file.
	save := func(cp *explore.Checkpoint, note string) {
		if cp == nil || common.Checkpoint == "" {
			return
		}
		if err := common.SaveCheckpoint(cp); err != nil {
			fmt.Fprintln(os.Stderr, errorLine(err))
			return
		}
		fmt.Fprintf(os.Stderr, "explore: %s%s saved to %s — rerun the same command to resume\n",
			note, cp, common.Checkpoint)
	}
	if err != nil {
		if rep != nil {
			save(rep.Checkpoint, "interrupted; ")
		}
		return err
	}
	if rep.Consensus.Partial {
		// The run stopped early (-timeout, -max-nodes, -stall-after) with
		// partial coverage: Run printed what WAS covered; keep the resumable
		// state, and exit nonzero — partial coverage is not a verdict.
		save(rep.Checkpoint, "")
		return fmt.Errorf("stopped with partial coverage (%s)", rep.Consensus.Coverage.Reason)
	}
	if common.Checkpoint != "" {
		// The run completed: a stale checkpoint file would only confuse the
		// next invocation.
		os.Remove(common.Checkpoint)
	}
	if !rep.OK() {
		return fmt.Errorf("implementation is incorrect")
	}

	if *valency {
		proposals := make([]int, im.Procs)
		for p := range proposals {
			proposals[p] = p % 2 // mixed proposals: the bivalent start
		}
		v, err := explore.Valency(im, proposals)
		if err != nil {
			return err
		}
		fmt.Printf("\nvalency analysis (proposals %v):\n", v.Proposals)
		fmt.Printf("  configurations: %d (%d bivalent, %d univalent)\n", v.Configs, v.Bivalent, v.Univalent)
		fmt.Printf("  initial valency: %v (bivalent: %v)\n", explore.ValencySet(v.InitialValency), v.InitialBivalent)
		fmt.Printf("  critical configurations: %d\n", len(v.Critical))
		if len(v.CriticalObjects) > 0 {
			fmt.Printf("  arbitrating objects:")
			for _, o := range v.CriticalObjects {
				fmt.Printf(" %s", im.Objects[o].Name)
			}
			fmt.Println(" (Herlihy's argument: never a register)")
		}
	}
	return nil
}
