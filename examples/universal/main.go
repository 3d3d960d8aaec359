// Universal: why consensus numbers matter. Herlihy's universality theorem
// (the context of Section 2.3) says a type that solves n-process consensus
// implements EVERY type for n processes. This example runs the universal
// construction — consensus objects driving replicated state machines — to
// give concurrent processes a wait-free linearizable counter and FIFO
// queue, types that have no simple lock-free realization of their own.
// Each is one seeded walk: an interleaving of every process's operations
// picked by the seed.
package main

import (
	"fmt"
	"log"
	"sort"

	"waitfree"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const procs = 4

	// A wait-free shared counter: every fetch-and-add response is unique —
	// the construction hands out exactly the values 0..N-1.
	faa := waitfree.Inv("faa", 1)
	ctr, err := waitfree.UniversalImplementation(waitfree.NewFetchAdd(procs), 0, procs, 100,
		[]waitfree.Invocation{faa})
	if err != nil {
		return err
	}
	scripts := make([][]waitfree.Invocation, procs)
	for p := range scripts {
		for i := 0; i < 25; i++ {
			scripts[p] = append(scripts[p], faa)
		}
	}
	out, err := waitfree.Walk(ctr, scripts, waitfree.WalkSchedule{Seed: 1})
	if err != nil {
		return err
	}
	var got []int
	for _, resps := range out.Responses {
		for _, resp := range resps {
			got = append(got, resp.Val)
		}
	}
	sort.Ints(got)
	dups := 0
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			dups++
		}
	}
	fmt.Printf("universal counter: %d increments by %d processes, %d duplicates, max=%d\n",
		len(got), procs, dups, got[len(got)-1])

	// A wait-free shared queue: two producers enqueue tagged values while a
	// consumer dequeues, all in one walk. Nothing may come out twice, and
	// each producer's values must come out in the order it enqueued them.
	deq := waitfree.Inv("deq")
	alphabet := []waitfree.Invocation{deq}
	queueScripts := make([][]waitfree.Invocation, 3)
	for p := 0; p < 2; p++ {
		for i := 0; i < 5; i++ {
			enq := waitfree.Inv("enq", p*5+i)
			queueScripts[p] = append(queueScripts[p], enq)
			alphabet = append(alphabet, enq)
		}
	}
	for i := 0; i < 10; i++ {
		queueScripts[2] = append(queueScripts[2], deq)
	}
	q, err := waitfree.UniversalImplementation(waitfree.NewQueue(3, 10, 64), waitfree.QueueStateOf(),
		3, 20, alphabet)
	if err != nil {
		return err
	}
	walked, err := waitfree.Walk(q, queueScripts, waitfree.WalkSchedule{Seed: 1})
	if err != nil {
		return err
	}
	seen := make(map[int]bool)
	last := []int{-1, -1} // per producer, the last index dequeued
	n := 0
	for _, resp := range walked.Responses[2] {
		if resp.Label == "empty" {
			continue
		}
		producer, index := resp.Val/5, resp.Val%5
		if seen[resp.Val] || index <= last[producer] {
			return fmt.Errorf("queue broke FIFO: dequeued %v after %v", resp, walked.Responses[2])
		}
		seen[resp.Val] = true
		last[producer] = index
		n++
	}
	fmt.Printf("universal queue: 10 enqueued while 10 dequeues ran, %d dequeued, no duplicates, FIFO per producer\n", n)
	fmt.Println("every operation above was wait-free and linearizable — powered by consensus.")
	return nil
}
