// Command experiments runs the full reproduction harness (E1-E11, indexed
// in DESIGN.md) and prints the result tables as Markdown — the body of
// EXPERIMENTS.md. The exit status is nonzero if any experiment's verdict
// is FAILED.
//
// Usage:
//
//	experiments [-only E4] [-timeout D] [-json] [-cache DIR]
//
// -cache DIR serves the harness's consensus explorations from the
// content-addressed result cache across runs, storing fresh conclusive
// verdicts on the way out.
package main

import (
	"flag"
	"fmt"
	"os"

	"waitfree/internal/cliutil"
	"waitfree/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	only := fs.String("only", "", "run a single experiment (E1..E11)")
	common := cliutil.Register(fs, cliutil.Output)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cache, err := common.OpenCache()
	if err != nil {
		return err
	}
	experiments.SetCache(cache)

	ctx, cancel := common.Context()
	defer cancel()

	var tables []*experiments.Table
	if *only != "" {
		table, err := experiments.RunOne(ctx, *only)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{table}
	} else {
		var err error
		tables, err = experiments.AllContext(ctx)
		if err != nil {
			return err
		}
	}

	if common.JSON {
		if err := cliutil.WriteJSON(os.Stdout, tables); err != nil {
			return err
		}
	} else {
		fmt.Print(experiments.Markdown(tables))
	}
	failed := 0
	for _, t := range tables {
		if t.Failed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments FAILED", failed, len(tables))
	}
	if !common.JSON {
		fmt.Printf("All %d experiments reproduced.\n", len(tables))
	}
	return nil
}
