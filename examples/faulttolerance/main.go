// Faulttolerance: what "wait-free" buys you. Wait-freedom means every
// process finishes in a bounded number of its own steps no matter what the
// others do — including crashing at the worst possible moment. This
// example takes the queue-based consensus protocol, runs it through the
// Theorem 5 register-elimination pipeline, and then verifies BOTH
// protocols under exhaustive crash exploration: the explorer enumerates
// every interleaving AND every way one process can crash inside it, and
// checks that the survivor always decides a valid value.
package main

import (
	"context"
	"fmt"
	"log"

	"waitfree"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	oneCrash := waitfree.FaultModel{MaxCrashes: 1}

	// First the input protocol itself, under exhaustive <=1-crash
	// exploration.
	input := waitfree.Queue2Consensus()
	opts := waitfree.ExploreOptions{Memoize: true, Faults: oneCrash}
	rep, err := waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: input,
		Explore:        opts,
	})
	if err != nil {
		return err
	}
	fmt.Printf("input protocol:  %s\n", rep.Consensus.Summary())
	if !rep.OK() {
		return fmt.Errorf("queue protocol failed under crash exploration")
	}

	// Then eliminate its registers (Theorem 5) and re-verify the
	// register-free output the same way.
	rep, err = waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: input,
		Explore:        opts,
		MaxK:           3,
	})
	if err != nil {
		return err
	}
	elim := rep.Elimination
	out := elim.Output
	outRep := elim.OutputReport
	fmt.Printf("register-free:   %s\n", outRep.Summary())
	fmt.Printf("\nregister-free protocol: %v\n", out)
	fmt.Printf("longest execution: %d object accesses\n\n", outRep.Depth)

	fmt.Printf("the explorer checked %d executions of the register-free protocol,\n", outRep.Leaves)
	fmt.Println("including every schedule in which one process crashes at any point:")
	fmt.Println("in every single one the survivor decided a valid value — wait-freedom")
	fmt.Println("at work. A crash is indistinguishable from a process that is merely")
	fmt.Println("very slow, so wait-freedom implies crash tolerance; the fault-aware")
	fmt.Println("explorer verifies that implication directly instead of assuming it.")

	// A concrete crashing run, for flavor: crash process 0 before its very
	// first step and watch process 1 decide alone.
	outcome, err := waitfree.Walk(out, [][]waitfree.Invocation{
		{waitfree.Propose(0)}, {waitfree.Propose(1)},
	}, waitfree.WalkSchedule{Seed: 1, CrashAfter: map[int]int{0: 0}})
	if err != nil {
		return err
	}
	fmt.Printf("\nsample run with process 0 crashed at step 0: crashed=%v, survivor decided %v\n",
		outcome.Crashed, outcome.Responses[1][0])
	return nil
}
