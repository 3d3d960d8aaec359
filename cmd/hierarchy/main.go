// Command hierarchy classifies the built-in type zoo: obliviousness,
// determinism, triviality, the Section 5.1/5.2 witnesses, literature
// consensus numbers, and what Theorem 5 of Bazzi-Neiger-Peterson (PODC
// 1994) concludes about h_m versus h_m^r for each type.
//
// Usage:
//
//	hierarchy [-witnesses] [-parallel N] [-timeout D] [-progress D] [-json]
//	          [-symmetry MODE] [-max-nodes N] [-stall-after D] [-cache DIR]
//
// The classification explorations honor the long-run guards: -max-nodes,
// -timeout, and -stall-after stop an oversized exploration early instead
// of running unbounded. With -audit, specs whose state spaces exceed the
// lint budget are reported as inconclusive rather than silently passed.
// Entries whose own witness searches truncate are likewise marked
// inconclusive ("?" in the TRIVIAL column). -cache DIR serves a repeat
// classification from the content-addressed result cache with
// byte-identical JSON.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"waitfree"
	"waitfree/internal/cliutil"
	"waitfree/internal/hierarchy"
	"waitfree/internal/types"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hierarchy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hierarchy", flag.ContinueOnError)
	witnesses := fs.Bool("witnesses", false, "print the full Section 5.1/5.2 witnesses per type")
	audit := fs.Bool("audit", false, "lint every zoo spec: declared flags vs computed behavior")
	common := cliutil.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *audit {
		failures, inconclusive := 0, 0
		for _, e := range hierarchy.Zoo() {
			err := types.Audit(e.Spec, e.Inits[0], 64)
			status := "ok"
			switch {
			case errors.Is(err, types.ErrAuditInconclusive):
				// Not a lie, just a spec too large for the lint's budget:
				// report it, but do not condemn the zoo over it.
				status = err.Error()
				inconclusive++
			case err != nil:
				status = err.Error()
				failures++
			}
			fmt.Printf("  %-18s %s\n", e.Spec.Name, status)
		}
		if failures > 0 {
			return fmt.Errorf("%d specs failed the audit", failures)
		}
		if inconclusive > 0 {
			fmt.Printf("all audited zoo specs pass (%d inconclusive: state space over budget)\n", inconclusive)
		} else {
			fmt.Println("all zoo specs pass the audit")
		}
		return nil
	}

	exOpts, err := common.Options(waitfree.ExploreOptions{})
	if err != nil {
		return err
	}
	cache, err := common.OpenCache()
	if err != nil {
		return err
	}
	ctx, cancel := common.Context()
	defer cancel()
	rep, err := waitfree.Check(ctx, waitfree.Request{
		Kind:    waitfree.KindClassification,
		Explore: exOpts,
		Cache:   cache,
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

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TYPE\tOBLIVIOUS\tDETERMINISTIC\tTRIVIAL\tCONSENSUS#\th_m\tTHEOREM 5")
	for _, c := range rep.Classifications {
		trivial := fmt.Sprintf("%v", c.Trivial)
		if c.Inconclusive {
			trivial += "?" // truncated witness search: bounded claim, not a verdict
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%s\t%s\t%s\t%s\n",
			c.Name, c.Oblivious, c.Deterministic, trivial, c.Consensus, c.HM, c.Theorem5)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if *witnesses {
		fmt.Println()
		fmt.Println("Witnesses (how each non-trivial deterministic type implements a one-use bit):")
		for _, c := range rep.Classifications {
			if c.Pair == nil {
				continue
			}
			fmt.Printf("  %-18s %v\n", c.Name+":", c.Pair)
			if c.ObliviousWitness != nil {
				fmt.Printf("  %-18s %v\n", "", "Section 5.1 form: "+c.ObliviousWitness.String())
			}
		}
	}
	return nil
}
