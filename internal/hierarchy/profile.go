package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"waitfree/internal/types"
)

// Entry is one zoo member submitted for classification: a type, the
// initial states implementations of it may use, and its consensus number
// as established in the literature (Herlihy 91 and successors). The
// consensus number is carried as documentation; triviality and witnesses
// are computed, not asserted.
type Entry struct {
	Spec  *types.Spec
	Inits []types.State
	// Consensus is the literature consensus number: "1", "2", or "inf".
	Consensus string
	// HM is the literature value of h_m: usually equal to Consensus by
	// Theorem 5; "1" for the nondeterministic separating type.
	HM string
}

// Classification is the computed profile of a zoo member. The JSON field
// tags are the machine form behind cmd/hierarchy's -json flag and
// waitfree.Check; String() is the canonical one-line human rendering.
type Classification struct {
	Name          string `json:"name"`
	Ports         int    `json:"ports"`
	Oblivious     bool   `json:"oblivious"`
	Deterministic bool   `json:"deterministic"`
	Trivial       bool   `json:"trivial"`
	// Pair is the Section 5.2 witness (nil for trivial or nondeterministic
	// types).
	Pair *Pair `json:"pair,omitempty"`
	// ObliviousWitness is the simpler Section 5.1 witness, present only
	// for oblivious non-trivial deterministic types.
	ObliviousWitness *ObliviousWitness `json:"oblivious_witness,omitempty"`
	// Inconclusive reports that a witness search exhausted a TRUNCATED
	// state space (the reachable closure exceeded its budget): the
	// computed verdicts above are bounded claims ("trivial up to the
	// bound", "no witness within the fragment"), not proofs. Conclusive
	// entries — a witness found, or exhaustion over the full closure —
	// leave it false.
	Inconclusive bool `json:"inconclusive,omitempty"`
	// Consensus and HM echo the literature values from the Entry.
	Consensus string `json:"consensus"`
	HM        string `json:"h_m"`
	// Theorem5 states what Theorem 5 concludes for this type.
	Theorem5 string `json:"theorem5"`
}

// String renders the classification as one line.
func (c *Classification) String() string {
	s := fmt.Sprintf("%s: oblivious=%v deterministic=%v trivial=%v consensus=%s h_m=%s — %s",
		c.Name, c.Oblivious, c.Deterministic, c.Trivial, c.Consensus, c.HM, c.Theorem5)
	if c.Inconclusive {
		s += " [inconclusive: witness search truncated]"
	}
	return s
}

// Standard zoo classification bounds: DefaultMaxK bounds the Section 5.2
// pair search and DefaultReachLimit bounds reachability queries. Exported
// so callers keying results on the classification (internal/rescache) can
// name the exact parameters ClassifyZooContext runs with.
const (
	DefaultMaxK       = 3
	DefaultReachLimit = 64
)

// Classify computes the profile of a zoo entry. maxK bounds the Section
// 5.2 pair search; limit bounds reachability queries.
func Classify(e Entry, maxK, limit int) (*Classification, error) {
	spec := e.Spec
	c := &Classification{
		Name:          spec.Name,
		Ports:         spec.Ports,
		Oblivious:     spec.Oblivious,
		Deterministic: spec.Deterministic,
		Consensus:     e.Consensus,
		HM:            e.HM,
	}
	if !spec.Deterministic {
		// Section 5 machinery does not apply; Theorem 5 applies only via
		// the h_m >= 2 route.
		switch {
		case e.HM != "1":
			c.Theorem5 = "h_m = h_m^r (Theorem 5: h_m >= 2)"
		case e.Consensus != "1":
			c.Theorem5 = "h_m < h_m^r possible (nondeterministic with h_m = 1: Jayanti-style separation)"
		default:
			c.Theorem5 = "Theorem 5 inapplicable (nondeterministic); both hierarchies at level 1"
		}
		return c, nil
	}
	pair, err := FindPair(spec, e.Inits, maxK)
	switch {
	case err == nil:
		c.Pair = pair
	case errors.Is(err, ErrInconclusive):
		// Trivial up to the bound, but the closure was truncated: keep
		// the bounded verdict and flag it. Test before ErrNoWitness —
		// inconclusive exhaustion errors wrap both sentinels.
		c.Trivial = true
		c.Inconclusive = true
	case errors.Is(err, ErrNoWitness):
		c.Trivial = true
	default:
		return nil, fmt.Errorf("classify %q: %w", spec.Name, err)
	}
	if spec.Oblivious && !c.Trivial {
		w, err := FindObliviousWitness(spec, e.Inits, limit)
		switch {
		case err == nil:
			c.ObliviousWitness = w
		case errors.Is(err, ErrInconclusive):
			c.Inconclusive = true
		case errors.Is(err, ErrNoWitness):
			// Conclusively absent; the field stays nil.
		default:
			return nil, fmt.Errorf("classify %q: %w", spec.Name, err)
		}
	}
	c.Theorem5 = "h_m = h_m^r (Theorem 5: deterministic)"
	return c, nil
}

// Zoo returns the classification entries for the full type zoo, with
// literature consensus numbers. Small port counts and value ranges keep
// the searches instant; the classifications do not depend on them.
func Zoo() []Entry {
	return []Entry{
		{Spec: types.Register(2, 2), Inits: []types.State{0}, Consensus: "1", HM: "1"},
		{Spec: types.SRSWBit(), Inits: []types.State{0}, Consensus: "1", HM: "1"},
		{Spec: types.TestAndSet(2), Inits: []types.State{0}, Consensus: "2", HM: "2"},
		{Spec: types.Swap(2, 2), Inits: []types.State{0}, Consensus: "2", HM: "2"},
		{Spec: types.FetchAdd(2), Inits: []types.State{0}, Consensus: "2", HM: "2"},
		{Spec: types.Queue(2, 2, 3), Inits: []types.State{types.QueueState(), types.QueueState(1)}, Consensus: "2", HM: "2"},
		{Spec: types.Stack(2, 2, 3), Inits: []types.State{types.QueueState(), types.QueueState(1)}, Consensus: "2", HM: "2"},
		{Spec: types.CompareSwap(2, 3), Inits: []types.State{2}, Consensus: "inf", HM: "inf"},
		{Spec: types.StickyCell(2, 2), Inits: []types.State{types.StickyUnset}, Consensus: "inf", HM: "inf"},
		{Spec: types.AugmentedQueue(2, 2, 3), Inits: []types.State{types.QueueState()}, Consensus: "inf", HM: "inf"},
		{Spec: types.FetchAndCons(2, 2, 3), Inits: []types.State{""}, Consensus: "inf", HM: "inf"},
		{Spec: types.StickyBit(2), Inits: []types.State{types.StickyUnset}, Consensus: "inf", HM: "inf"},
		{Spec: types.Consensus(2), Inits: []types.State{types.ConsensusUndecided}, Consensus: "2", HM: "2"},
		{Spec: types.OneUseBit(), Inits: []types.State{types.OneUseUnset}, Consensus: "1", HM: "1"},
		{Spec: types.Toggle(2), Inits: []types.State{0}, Consensus: "1", HM: "1"},
		{Spec: types.LatchFlag(), Inits: []types.State{types.LatchFlagInit()}, Consensus: "1", HM: "1"},
		{Spec: types.Beacon(2), Inits: []types.State{0}, Consensus: "1", HM: "1"},
		{Spec: types.Blinker(2), Inits: []types.State{0}, Consensus: "1", HM: "1"},
		{Spec: types.IncOnly(2), Inits: []types.State{0}, Consensus: "1", HM: "1"},
		{Spec: types.WeakLeader(2), Inits: []types.State{0}, Consensus: "2", HM: "1"},
		{Spec: types.NoisySticky(2, 2), Inits: []types.State{types.StickyUnset}, Consensus: "inf", HM: "inf"},
	}
}

// ClassifyZooContext classifies every zoo entry with standard bounds
// across parallelism workers (0 means GOMAXPROCS). Entries are
// independent, so the result is identical at every parallelism:
// classifications come back in zoo order, and the first error (in zoo order) wins. Workers stop
// claiming entries once ctx is done, and the call returns ctx.Err().
// Cancellation granularity is one zoo entry (entries classify in
// milliseconds).
func ClassifyZooContext(ctx context.Context, parallelism int) ([]*Classification, error) {
	entries := Zoo()
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(entries) {
		workers = len(entries)
	}
	out := make([]*Classification, len(entries))
	errs := make([]error, len(entries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(entries) {
					return
				}
				out[i], errs[i] = Classify(entries[i], DefaultMaxK, DefaultReachLimit)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
