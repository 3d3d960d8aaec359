// Synthesis: the hierarchy separations, discovered by machine. Bounded
// protocol synthesis searches over ALL deterministic 2-process protocols
// with a few accesses per process. It finds consensus protocols where the
// hierarchy says they exist (one compare-and-swap, one augmented queue)
// and exhaustively refutes them where it says they don't (one test-and-set
// alone — the h_1 = 1 side of the story whose h_m = 2 side the Theorem 5
// pipeline constructs).
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
	// Positive: one augmented queue suffices; synthesis rediscovers
	// enqueue-your-proposal-then-peek on its own.
	aq := []waitfree.SynthObject{{
		Name: "aq", Spec: waitfree.NewAugmentedQueue(2, 2, 2), Init: waitfree.QueueStateOf(),
	}}
	// Check re-verifies a found protocol with the independent exhaustive
	// checker.
	ctx := context.Background()
	rep, err := waitfree.Check(ctx, waitfree.Request{
		Kind:      waitfree.KindSynthesis,
		Objects:   aq,
		Synthesis: waitfree.SynthOptions{Depth: 2, Symmetric: true},
	})
	if err != nil {
		return err
	}
	syn := rep.Synthesis
	if !syn.Found() {
		return fmt.Errorf("augmented queue: synthesis verdict %s", syn.Verdict)
	}
	fmt.Printf("augmented queue: protocol found after %d assignments:\n%s\n",
		syn.Assignments, syn.Strategy)
	fmt.Printf("re-verification: %s\n\n", syn.Reverification.Summary())

	// Negative: one test-and-set object alone. The loser learns that it
	// lost but can never learn what the winner proposed — and the search
	// proves no protocol with up to 3 accesses per process exists.
	tas := []waitfree.SynthObject{{
		Name: "tas", Spec: waitfree.NewTestAndSet(2), Init: 0,
	}}
	rep, err = waitfree.Check(ctx, waitfree.Request{
		Kind:      waitfree.KindSynthesis,
		Objects:   tas,
		Synthesis: waitfree.SynthOptions{Depth: 3},
	})
	if err != nil {
		return err
	}
	if rep.Synthesis.Verdict == "impossible" {
		fmt.Printf("one test-and-set alone: NO protocol exists within 3 accesses per process\n")
		fmt.Printf("(exhausted after %d assignments — h_1(test-and-set) = 1)\n\n", rep.Synthesis.Assignments)
	}

	// The h_m side: many test-and-set objects DO solve consensus without
	// registers — the Theorem 5 pipeline builds the protocol.
	rep, err = waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.TAS2Consensus(),
		MaxK:           3,
	})
	if err != nil {
		return err
	}
	fmt.Printf("the Theorem 5 pipeline: %s\n", rep.Elimination.Summary())
	fmt.Println("\nso: h_1(tas) = 1 < h_1^r(tas) = 2 = h_m(tas) — registers matter for one")
	fmt.Println("object and stop mattering for many, exactly as the paper proves.")
	return nil
}
