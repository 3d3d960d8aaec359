// Quickstart: define a concurrent data type as a 5-tuple, classify it,
// derive a one-use bit from it (Section 5 of Bazzi-Neiger-Peterson), and
// model-check a consensus protocol built on it.
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
	// A type is a 5-tuple T = <n, Q, I, R, delta>. Here is a 2-port
	// "turnstile counter": push increments a hidden counter and answers
	// ok; peek answers the count so far.
	turnstile := &waitfree.Spec{
		Name:          "turnstile",
		Ports:         2,
		Oblivious:     true,
		Deterministic: true,
		Alphabet:      []waitfree.Invocation{waitfree.Inv("push"), waitfree.Inv("peek")},
		Step: func(q waitfree.State, _ int, inv waitfree.Invocation) []waitfree.Transition {
			n, ok := q.(int)
			if !ok {
				return nil
			}
			switch inv.Op {
			case "push":
				return []waitfree.Transition{{Next: n + 1, Resp: waitfree.OK}}
			case "peek":
				return []waitfree.Transition{{Next: n, Resp: waitfree.ValOf(n)}}
			}
			return nil
		},
	}

	// Is it trivial? (Trivial types carry no information and cannot
	// implement anything — Section 5.1.)
	trivial, err := waitfree.IsTrivial(turnstile, []waitfree.State{0}, 3)
	if err != nil {
		return err
	}
	fmt.Printf("turnstile is trivial: %v\n", trivial)

	// Non-trivial deterministic types implement one-use bits. Find the
	// Section 5.2 witness and build the bit.
	pair, err := waitfree.FindPair(turnstile, []waitfree.State{0}, 3)
	if err != nil {
		return err
	}
	fmt.Printf("section 5.2 witness: %v\n", pair)

	bit, _, err := waitfree.OneUseBitFromType(turnstile, []waitfree.State{0}, 3)
	if err != nil {
		return err
	}
	fmt.Printf("derived implementation: %v\n", bit)

	// Model-check a classic consensus protocol: 2-process consensus from
	// one test-and-set object plus two SRSW bit registers. The checker
	// explores every interleaving from every proposal vector.
	ctx := context.Background()
	rep, err := waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.TAS2Consensus(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("tas-2consensus: %s\n", rep.Consensus.Summary())

	// And watch the checker catch an incorrect protocol: registers alone
	// cannot solve 2-process consensus.
	rep, err = waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.NaiveRegisterConsensus(),
	})
	if err != nil {
		return err
	}
	report := rep.Consensus
	fmt.Printf("naive-register-2consensus: %s\n", report.Summary())
	if report.Violation != nil {
		fmt.Printf("counterexample schedule has %d steps\n", len(report.Violation.Schedule))
	}
	return nil
}
