package explore

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// refCounters is the map form the summaries carried before the dense
// counters: one entry per key with a nonzero counter.
func refCounters(e *explorer, acc []int32) map[accKey]int {
	m := make(map[accKey]int)
	for i, v := range acc {
		if v != 0 {
			m[e.acct.keys[i]] = int(v)
		}
	}
	return m
}

// refMerge is the map merge: the child's counters, with bump's keys
// incremented (an absent key counts from 0), maxed into the parent's.
func refMerge(parent, child map[accKey]int, bump []accKey) map[accKey]int {
	c := maps.Clone(child)
	for _, k := range bump {
		c[k]++
	}
	out := maps.Clone(parent)
	for k, v := range c {
		if v > out[k] {
			out[k] = v
		}
	}
	return out
}

// TestMergeChildMatchesReference checks mergeChild and mergeCrashChild
// against the map merge on random summaries: counter slices of random
// length (shorter than, equal to or missing the table's later keys), zero
// counters among them, bumped ids both inside the child's counters and at
// or past their end, and a parent whose buffer has stale counters past its
// length, as a reused level buffer has.
func TestMergeChildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randAcc := func(n int) []int32 {
		acc := make([]int32, n)
		for i := range acc {
			if rng.Intn(3) > 0 {
				acc[i] = int32(1 + rng.Intn(6))
			}
		}
		return acc
	}
	for iter := 0; iter < 3000; iter++ {
		nkeys := 3 + rng.Intn(14)
		e := &explorer{acct: newAccTable()}
		for i := 0; i < nkeys; i++ {
			e.acct.id(accKey{Obj: i / 3, Op: fmt.Sprint(i % 3)})
		}
		stale := make([]int32, rng.Intn(nkeys+4)) // at times too short: growAcc allocates
		for i := range stale {
			stale[i] = 100 + int32(i) // never a merge result: a leak shows
		}
		plen := rng.Intn(nkeys + 1)
		parent := summary{height: rng.Intn(6), nodes: int64(rng.Intn(50)), leaves: int64(rng.Intn(20)),
			acc: append(stale[:0:len(stale)], randAcc(plen)...)}
		child := summary{height: rng.Intn(6), nodes: int64(1 + rng.Intn(50)), leaves: int64(rng.Intn(20)),
			acc: randAcc(rng.Intn(nkeys + 1))}
		ids := rng.Perm(nkeys)[:3]
		bump := []accKey{e.acct.keys[ids[0]], e.acct.keys[ids[1]], e.acct.keys[ids[2]]}
		crash := rng.Intn(4) == 0

		wantAcc := refMerge(refCounters(e, parent.acc), refCounters(e, child.acc), bump)
		wantHeight := max(parent.height, child.height+1)
		if crash {
			wantAcc = refMerge(refCounters(e, parent.acc), refCounters(e, child.acc), nil)
			wantHeight = max(parent.height, child.height)
		}
		wantNodes, wantLeaves := parent.nodes+child.nodes, parent.leaves+child.leaves
		childAcc := append([]int32(nil), child.acc...)

		if crash {
			e.mergeCrashChild(&parent, &child)
		} else {
			e.mergeChild(&parent, &child, int32(ids[0]), int32(ids[1]), int32(ids[2]))
		}
		name := fmt.Sprintf("iter %d (crash %v, keys %d, bumped %v)", iter, crash, nkeys, ids)
		if got := refCounters(e, parent.acc); !maps.Equal(got, wantAcc) {
			t.Fatalf("%s: counters %v, reference %v", name, got, wantAcc)
		}
		if parent.height != wantHeight || parent.nodes != wantNodes || parent.leaves != wantLeaves {
			t.Fatalf("%s: (height %d, nodes %d, leaves %d), reference (%d, %d, %d)", name,
				parent.height, parent.nodes, parent.leaves, wantHeight, wantNodes, wantLeaves)
		}
		for i, v := range child.acc {
			if v != childAcc[i] {
				t.Fatalf("%s: the merge wrote the child's counters", name)
			}
		}
	}
}
