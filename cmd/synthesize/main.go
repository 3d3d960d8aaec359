// Command synthesize searches for 2-process consensus protocols over a
// chosen object set within an access bound — or proves none exists — and
// prints any protocol found, after independently re-verifying it with the
// execution-tree explorer.
//
// Usage:
//
//	synthesize [-objects tas|tas+bits|cas|sticky|register|onebits]
//	           [-depth N] [-symmetric] [-budget N]
//	           [-timeout D] [-json] [-cache DIR]
//	           [-parallel N] [-progress D] [-symmetry MODE]
//	           [-faults] [-max-crashes N] [-fault-mode MODE] [-max-recoveries N]
//	           [-stall-after D] [-max-nodes N] [-memo-budget N] [-memo-spill DIR]
//
// The re-verification exploration honors the long-run guards: -max-nodes,
// -timeout, and -stall-after stop an oversized re-verification with an
// "inconclusive" error instead of running unbounded. -cache DIR serves a
// repeat search from the content-addressed result cache with
// byte-identical JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"waitfree"
	"waitfree/internal/cliutil"
	"waitfree/internal/synth"
)

// objectSetNames renders the registry's object-set names for flag help
// and errors.
func objectSetNames() string {
	var names []string
	for _, s := range waitfree.ObjectSets() {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "synthesize:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("synthesize", flag.ContinueOnError)
	setName := fs.String("objects", "tas+bits", "object set: "+objectSetNames())
	depth := fs.Int("depth", synth.DefaultDepth, "maximum object accesses per process")
	symmetric := fs.Bool("symmetric", false, "search symmetric strategies only (faster, weaker negatives)")
	budget := fs.Int64("budget", 5e7, "assignment budget")
	common := cliutil.Register(fs, cliutil.Output|cliutil.Engine)
	if err := fs.Parse(args); err != nil {
		return err
	}
	objects, err := waitfree.BuildObjectSet(*setName)
	if err != nil {
		return fmt.Errorf("unknown object set %q (have %s)", *setName, objectSetNames())
	}

	if !common.JSON {
		fmt.Printf("searching for a 2-process consensus protocol over %q (depth <= %d, symmetric=%v)\n",
			*setName, *depth, *symmetric)
	}
	exOpts, err := common.Options(waitfree.ExploreOptions{})
	if err != nil {
		return err
	}
	_, err = common.Run(waitfree.Request{
		Kind:      waitfree.KindSynthesis,
		Objects:   objects,
		Synthesis: waitfree.SynthOptions{Depth: *depth, Symmetric: *symmetric, Budget: *budget},
		Explore:   exOpts,
	}, func(rep *waitfree.Report) error {
		s := rep.Synthesis
		switch s.Verdict {
		case "impossible":
			fmt.Printf("NO PROTOCOL exists within the bound (exhausted after %d assignments, %d configurations)\n",
				s.Assignments, s.Configs)
		case "unknown":
			fmt.Printf("verdict UNKNOWN: budget exhausted (%d assignments)\n", s.Assignments)
		default:
			fmt.Printf("protocol FOUND after %d assignments, %d configurations:\n\n%s\n",
				s.Assignments, s.Configs, s.Strategy)
			fmt.Printf("independent re-verification: %s\n", s.Reverification.Summary())
		}
		return nil
	})
	return err
}
