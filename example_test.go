package waitfree_test

import (
	"context"
	"fmt"

	"waitfree"
)

// ExampleCheck_elimination runs the paper's Theorem 5 pipeline on the
// classic queue-based consensus protocol.
func ExampleCheck_elimination() {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindElimination,
		Implementation: waitfree.Queue2Consensus(),
		MaxK:           3,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(rep.Elimination.Summary())
	// Output:
	// queue-2consensus: D=5, 2 registers -> 4 one-use bits -> 4 queue objects; output D=6, ok=true
}

// ExampleCheck_consensus model-checks a register-free protocol over every
// proposal vector and interleaving.
func ExampleCheck_consensus() {
	rep, err := waitfree.Check(context.Background(), waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: waitfree.CASConsensus(2),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(rep.Consensus.Summary())
	// Output:
	// OK: procs=2 roots=4 D=2 nodes=20 leaves=8 agreement=true validity=true waitfree=true
}

// ExampleFindPair discovers the Section 5.2 witness by which a queue
// implements a one-use bit.
func ExampleFindPair() {
	pair, err := waitfree.FindPair(
		waitfree.NewQueue(2, 2, 3), []waitfree.State{waitfree.QueueStateOf()}, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(pair)
	// Output:
	// q=; H1=[deq]@port1 -> empty; H2=enq@port2 then H1 -> val(0)
}

// ExampleIsTrivial shows the paper's triviality boundary: a type whose
// responses carry no information implements nothing.
func ExampleIsTrivial() {
	trivialType, _ := waitfree.IsTrivial(waitfree.NewBeacon(2), []waitfree.State{0}, 3)
	usefulType, _ := waitfree.IsTrivial(waitfree.NewTestAndSet(2), []waitfree.State{0}, 3)
	fmt.Println(trivialType, usefulType)
	// Output:
	// true false
}

// ExampleComputeValency exposes the FLP/Herlihy bivalence structure of a
// consensus protocol's execution tree.
func ExampleComputeValency() {
	report, err := waitfree.ComputeValency(waitfree.TAS2Consensus(), []int{0, 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("initial bivalent:", report.InitialBivalent)
	fmt.Println("critical configurations:", len(report.Critical))
	// Output:
	// initial bivalent: true
	// critical configurations: 1
}
