// Command eliminate runs the constructive Theorem 5 pipeline of
// Bazzi-Neiger-Peterson (PODC 1994) on one of the built-in consensus
// protocols: it computes the Section 4.2 access bounds, replaces every
// SRSW-bit register with one-use bits (Section 4.3), realizes every
// one-use bit from the protocol's own object type (Section 5.2), and
// verifies the register-free result exhaustively.
//
// Usage:
//
//	eliminate [-protocol tas|queue|stack|faa|swap|noisysticky] [-memoize]
//	          [-timeout D] [-json] [-cache DIR]
//	          [-parallel N] [-progress D] [-symmetry MODE]
//	          [-faults] [-max-crashes N] [-fault-mode MODE] [-max-recoveries N]
//	          [-stall-after D] [-max-nodes N] [-memo-budget N] [-memo-spill DIR]
//
// The pipeline's explorations honor the long-run guards: -max-nodes,
// -timeout, and -stall-after stop an oversized exploration with an
// "inconclusive" error (the input is neither verified nor condemned)
// instead of running unbounded. -cache DIR serves a repeat elimination
// from the content-addressed result cache with byte-identical JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"waitfree"
	"waitfree/internal/cliutil"
	"waitfree/internal/explore"
)

// eliminableNames renders the registry's Theorem 5 pipeline inputs for
// flag help and errors ("noisysticky" stays the CLI spelling of the
// registry's "noisysticky-r").
func eliminableNames() string {
	var names []string
	for _, p := range waitfree.Protocols() {
		if !p.Eliminable {
			continue
		}
		if p.Name == "noisysticky-r" {
			names = append(names, "noisysticky")
			continue
		}
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eliminate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eliminate", flag.ContinueOnError)
	name := fs.String("protocol", "tas", "protocol to transform: "+eliminableNames())
	memoize := fs.Bool("memoize", false, "memoize configurations during exploration")
	common := cliutil.Register(fs, cliutil.Output|cliutil.Engine)
	if err := fs.Parse(args); err != nil {
		return err
	}

	exOpts, err := common.Options(explore.Options{Memoize: *memoize})
	if err != nil {
		return err
	}
	req := waitfree.Request{
		Kind:    waitfree.KindElimination,
		Explore: exOpts,
	}
	lookup := *name
	if lookup == "noisysticky" {
		// The CLI's historical name for the nondeterministic case: Theorem
		// 5's h_m >= 2 route (Section 5.3), registered as "noisysticky-r"
		// with the register-free noisy-sticky consensus as substrate.
		lookup = "noisysticky-r"
	}
	info, ok := waitfree.LookupProtocol(lookup)
	if !ok || !info.Eliminable {
		return fmt.Errorf("unknown protocol %q (have %s)", *name, eliminableNames())
	}
	if req.Implementation, err = info.Build(0); err != nil {
		return err
	}
	if info.Substrate != "" {
		sub, ok := waitfree.LookupProtocol(info.Substrate)
		if !ok {
			return fmt.Errorf("protocol %q names unknown substrate %q", info.Name, info.Substrate)
		}
		if req.Substrate, err = sub.Build(0); err != nil {
			return err
		}
	}

	_, err = common.Run(req, func(rep *waitfree.Report) error {
		fmt.Printf("input:  %v\n", req.Implementation)
		fmt.Print(rep.String())
		return nil
	})
	return err
}
