// Command synthesize searches for 2-process consensus protocols over a
// chosen object set within an access bound — or proves none exists — and
// prints any protocol found, after independently re-verifying it with the
// execution-tree explorer.
//
// Usage:
//
//	synthesize [-objects tas|tas+bits|cas|sticky|register|onebits]
//	           [-depth N] [-symmetric] [-budget N]
//	           [-parallel N] [-timeout D] [-progress D] [-json]
//	           [-symmetry MODE] [-max-nodes N] [-stall-after D] [-cache DIR]
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
	depth := fs.Int("depth", 3, "maximum object accesses per process")
	symmetric := fs.Bool("symmetric", false, "search symmetric strategies only (faster, weaker negatives)")
	budget := fs.Int64("budget", 5e7, "assignment budget")
	common := cliutil.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	objects, err := waitfree.BuildObjectSet(*setName)
	if err != nil {
		return fmt.Errorf("unknown object set %q (have %s)", *setName, objectSetNames())
	}

	ctx, cancel := common.Context()
	defer cancel()
	if !common.JSON {
		fmt.Printf("searching for a 2-process consensus protocol over %q (depth <= %d, symmetric=%v)\n",
			*setName, *depth, *symmetric)
	}
	exOpts, err := common.Options(waitfree.ExploreOptions{})
	if err != nil {
		return err
	}
	cache, err := common.OpenCache()
	if err != nil {
		return err
	}
	rep, err := waitfree.Check(ctx, waitfree.Request{
		Kind:      waitfree.KindSynthesis,
		Objects:   objects,
		Synthesis: waitfree.SynthOptions{Depth: *depth, Symmetric: *symmetric, Budget: *budget},
		Explore:   exOpts,
		Cache:     cache,
	})
	if rep != nil {
		cliutil.LogCacheOutcome(rep.Cache)
	}
	if err != nil {
		return err
	}
	if common.JSON {
		return cliutil.WriteJSON(os.Stdout, rep)
	}

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
}
