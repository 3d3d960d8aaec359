// Zoo: walk the concurrent data type zoo. For every type: obliviousness,
// determinism, triviality, the witness by which it implements one-use bits
// (Sections 5.1/5.2), and what Theorem 5 concludes about its position in
// Jayanti's h_m and h_m^r hierarchies. Ends with the nondeterministic
// corner the paper carves out: a type for which registers provably help —
// consensus works with them and the naive protocol breaks without them.
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
	rep, err := waitfree.Check(ctx, waitfree.Request{Kind: waitfree.KindClassification})
	if err != nil {
		return err
	}
	fmt.Println("type zoo classification:")
	for _, c := range rep.Classifications {
		kind := "deterministic"
		if !c.Deterministic {
			kind = "nondeterministic"
		}
		if !c.Oblivious {
			kind += ", port-aware"
		}
		status := "non-trivial"
		if c.Trivial {
			status = "TRIVIAL (implements nothing)"
		}
		fmt.Printf("\n%s (%s, %s)\n", c.Name, kind, status)
		fmt.Printf("  consensus number: %s, h_m: %s\n", c.Consensus, c.HM)
		fmt.Printf("  %s\n", c.Theorem5)
		if c.Pair != nil {
			fmt.Printf("  one-use bit witness: %v\n", c.Pair)
		}
	}

	// The nondeterministic separation (Section 6 context): WeakLeader
	// elects exactly one winner among its first two accesses, but the
	// adversary picks which. With registers, the two-access protocol
	// solves consensus in every adversary resolution:
	fmt.Println("\n--- the nondeterministic corner ---")
	rep, err = waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.WeakLeader2Consensus(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("weak-leader WITH registers:    %s\n", rep.Consensus.Summary())

	// Without registers, the same election cannot transmit the winner's
	// proposal. The natural protocol — decide your own value if you win,
	// give up and guess otherwise — fails agreement, and the explorer
	// exhibits the adversary resolution that breaks it:
	rep, err = waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: weakLeaderNoRegisters(),
	})
	if err != nil {
		return err
	}
	report := rep.Consensus
	fmt.Printf("weak-leader WITHOUT registers: %s\n", report.Summary())
	if report.Violation != nil {
		fmt.Println("adversary's counterexample:")
		for _, s := range report.Violation.Schedule {
			fmt.Printf("  %v\n", s)
		}
		fmt.Printf("  %s\n", report.Violation.Detail)
	}
	fmt.Println("\nTheorem 5 says this gap needs nondeterminism: for every deterministic")
	fmt.Println("type the register-free h_m equals the register-assisted h_m^r.")
	return nil
}

// weakLeaderNoRegisters is the doomed register-free attempt: announce
// nothing, access the WeakLeader object twice, decide your own value if
// you won and the *other* binary value if you lost (the best blind guess —
// the winner decided its own value, which you do not know).
func weakLeaderNoRegisters() *waitfree.Implementation {
	type st struct {
		PC int
		V  int
	}
	machine := waitfree.FuncMachine{
		StartFn: func(inv waitfree.Invocation, _ any) any { return st{PC: 0, V: inv.A} },
		NextFn: func(state any, resp waitfree.Response) (waitfree.Action, any) {
			s := state.(st)
			won := resp.Label == "win"
			switch {
			case s.PC == 0:
				return waitfree.InvokeAction(0, waitfree.Inv("tas")), st{PC: 1, V: s.V}
			case won:
				return waitfree.ReturnAction(waitfree.ValOf(s.V), nil), s
			case s.PC == 1:
				return waitfree.InvokeAction(0, waitfree.Inv("tas")), st{PC: 2, V: s.V}
			default:
				return waitfree.ReturnAction(waitfree.ValOf(1-s.V), nil), s
			}
		},
	}
	return &waitfree.Implementation{
		Name:   "weakleader-no-registers",
		Target: waitfree.NewConsensus(2),
		Procs:  2,
		Objects: []waitfree.ObjectDecl{
			{Name: "elect", Spec: waitfree.NewWeakLeader(2), Init: 0, PortOf: []int{1, 2}},
		},
		Machines: []waitfree.Machine{machine, machine},
	}
}
