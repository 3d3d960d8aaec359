// Registerfree: the paper's Theorem 5, end to end. Take the classic
// queue-based 2-process consensus protocol (one queue + two SRSW bit
// registers), eliminate the registers through the paper's pipeline —
// Section 4.2 access bounds, Section 4.3 one-use bits, Section 5.2
// realization from the queue type itself — and verify that the resulting
// queue-only protocol still solves consensus in every execution.
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
	input := waitfree.Queue2Consensus()
	fmt.Printf("input:  %v\n", input)

	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: input,
		MaxK:           3,
	})
	if err != nil {
		return err
	}
	report := rep.Elimination

	fmt.Printf("output: %v\n\n", report.Output)

	fmt.Println("Section 4.2: uniform access bound over all executions")
	fmt.Printf("  D = %d (every object is used at most D times)\n", report.InputReport.Depth)
	for _, b := range report.Bounds {
		fmt.Printf("  %s: read at most %d times, written at most %d times\n", b.Name, b.R, b.W)
	}

	fmt.Println("\nSection 4.3: each register becomes a (w+1) x r array of one-use bits")
	fmt.Printf("  one-use bits introduced: %d\n", report.OneUseBitsUsed)

	fmt.Println("\nSection 5.2: each one-use bit becomes one queue object")
	fmt.Printf("  witness: %v\n", report.Pair)
	fmt.Printf("  queue objects added: %d\n", report.TypeObjectsAdded)

	fmt.Println("\nverification of the queue-only protocol (all proposal vectors, all interleavings):")
	fmt.Printf("  %s\n", report.OutputReport.Summary())

	if !report.OutputReport.OK() {
		return fmt.Errorf("pipeline produced an incorrect implementation")
	}
	fmt.Println("\nconclusion: h_m(queue) >= 2 without any registers — Theorem 5 in action.")
	return nil
}
