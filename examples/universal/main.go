// Universal: why consensus numbers matter. Herlihy's universality theorem
// (the context of Section 2.3) says a type that solves n-process consensus
// implements EVERY type for n processes. This example runs the universal
// construction — consensus objects driving replicated state machines — to
// give four goroutines a wait-free linearizable FIFO queue and a wait-free
// counter, types that have no simple lock-free realization of their own.
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
	// the construction hands out exactly the values 0..N-1. The runner
	// gives each process its own goroutine.
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
	runner, err := waitfree.NewRunner(ctr, nil, nil)
	if err != nil {
		return err
	}
	out, err := runner.Run(scripts, nil)
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
	fmt.Printf("universal counter: %d increments by %d goroutines, %d duplicates, max=%d\n",
		len(got), procs, dups, got[len(got)-1])

	// A wait-free shared queue: two producers enqueue tagged values
	// concurrently, then a consumer drains the queue. The two phases are
	// two runs on one runner: the objects persist, and each process's
	// replica is carried over through the outcome's memories.
	deq := waitfree.Inv("deq")
	alphabet := []waitfree.Invocation{deq}
	producers := make([][]waitfree.Invocation, procs)
	for p := 0; p < 2; p++ {
		for i := 0; i < 5; i++ {
			enq := waitfree.Inv("enq", p*5+i)
			producers[p] = append(producers[p], enq)
			alphabet = append(alphabet, enq)
		}
	}
	// The drain dequeues once per element plus once to find the queue empty.
	drain := make([][]waitfree.Invocation, procs)
	for i := 0; i <= 10; i++ {
		drain[3] = append(drain[3], deq)
	}
	q, err := waitfree.UniversalImplementation(waitfree.NewQueue(procs, 10, 64), waitfree.QueueStateOf(),
		procs, 21, alphabet)
	if err != nil {
		return err
	}
	runner, err = waitfree.NewRunner(q, nil, nil)
	if err != nil {
		return err
	}
	produced, err := runner.Run(producers, nil)
	if err != nil {
		return err
	}
	drained, err := runner.Run(drain, produced.Mems)
	if err != nil {
		return err
	}
	n := 0
	for _, resp := range drained.Responses[3] {
		if resp.Label == "empty" {
			break
		}
		n++
	}
	fmt.Printf("universal queue: 10 enqueued concurrently, %d drained\n", n)
	fmt.Println("every operation above was wait-free and linearizable — powered by consensus.")
	return nil
}
