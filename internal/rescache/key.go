// Package rescache is a content-addressed cache for Check verdicts. A
// request's key is the SHA-256 of a canonical byte encoding of everything
// that affects its report — the implementation's behavior (via
// explore.CanonicalImplementation, so process-permuted symmetric
// implementations share an entry), specs, the pipeline kind and its
// parameters, and the verdict-relevant subset of the exploration options —
// and nothing that does not: observability hooks, parallelism, symmetry
// mode, and soft stop budgets are all excluded because the engine
// guarantees they never change a completed report. Entries live in an
// in-memory LRU with a byte budget, backed by an optional disk store in
// the internal/envelope checksummed format; a corrupted disk entry
// is salvaged when its record checksum survives and is otherwise deleted
// and reported as a miss, never as an error.
package rescache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"waitfree/internal/core"
	"waitfree/internal/explore"
	"waitfree/internal/hierarchy"
	"waitfree/internal/program"
	"waitfree/internal/synth"
	"waitfree/internal/types"
)

// keyMagic versions the key derivation itself: bump it whenever the
// encoding below (or the semantics of any pipeline it covers) changes, so
// stale entries miss instead of serving wrong verdicts.
const keyMagic = "wfkey2"

// Key is the SHA-256 content address of a request.
type Key [sha256.Size]byte

// Hex renders the key as lowercase hex — the disk filename stem.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ErrUncacheable marks requests whose reports must not be cached:
// resumed runs (their verdicts cover a frontier, not the request),
// MemoBudget-degraded runs (their MemoHits counter depends on eviction
// order), and runs with per-leaf callbacks or history recording (the
// callbacks are the point, and history blows up the entry size).
var ErrUncacheable = errors.New("rescache: request is not cacheable")

// KeySpec is the verdict-relevant content of a Check request, assembled
// by the caller (waitfree.Check) from its Request. Fields irrelevant to
// the spec's Kind are ignored.
type KeySpec struct {
	// Kind is the pipeline: "consensus", "bound", "elimination",
	// "classification", or "synthesis".
	Kind string
	// Values is the consensus proposal range (0 = 2); consensus only.
	Values int
	// MaxK bounds the elimination witness search (0 = hierarchy.DefaultMaxK).
	MaxK int
	// Implementation is the subject of consensus/bound/elimination.
	Implementation *program.Implementation
	// Substrate is the elimination Section 5.3 substrate, if any.
	Substrate *program.Implementation
	// Objects and Synthesis drive synthesis.
	Objects   []synth.Object
	Synthesis synth.Options
	// Explore is the full exploration options; only the verdict-relevant
	// subset is keyed, and some values make the request uncacheable.
	Explore explore.Options
}

// RequestKey derives the content address of spec. It returns
// ErrUncacheable for requests whose reports must not be cached, and
// explore.ErrUncanonical (wrapped) when the implementation's behavior has
// no bounded canonical encoding; callers should treat any error as
// "bypass the cache", not as a request failure.
func RequestKey(spec KeySpec) (Key, error) {
	if err := uncacheable(spec.Explore); err != nil {
		return Key{}, err
	}
	var b []byte
	b = append(b, keyMagic...)
	b = appendString(b, spec.Kind)
	var err error
	switch spec.Kind {
	case "consensus":
		k := spec.Values
		if k == 0 {
			k = 2
		}
		b = appendInt(b, int64(k))
		b, err = appendImplementation(b, spec.Implementation, k)
	case "bound":
		k := core.TargetValues(spec.Implementation)
		b = appendInt(b, int64(k))
		b, err = appendImplementation(b, spec.Implementation, k)
	case "elimination":
		b = appendInt(b, int64(cmp.Or(spec.MaxK, hierarchy.DefaultMaxK)))
		b, err = appendImplementation(b, spec.Implementation, core.TargetValues(spec.Implementation))
		if err == nil {
			if spec.Substrate != nil {
				b = append(b, 1)
				// The substrate is a 2-process binary consensus
				// implementation realizing one-use bits.
				b, err = appendImplementation(b, spec.Substrate, 2)
			} else {
				b = append(b, 0)
			}
		}
	case "classification":
		b, err = appendZoo(b)
	case "synthesis":
		b, err = appendSynthesis(b, spec.Objects, spec.Synthesis)
	default:
		return Key{}, fmt.Errorf("rescache: unknown kind %q", spec.Kind)
	}
	if err != nil {
		return Key{}, err
	}
	b = appendExplore(b, spec.Explore)
	return sha256.Sum256(b), nil
}

// uncacheable rejects option combinations whose reports are not pure
// functions of the request.
func uncacheable(o explore.Options) error {
	switch {
	case o.ResumeFrom != nil:
		return fmt.Errorf("%w: resumed run", ErrUncacheable)
	case o.MemoBudget > 0:
		return fmt.Errorf("%w: MemoBudget may degrade the run", ErrUncacheable)
	case o.OnLeaf != nil:
		return fmt.Errorf("%w: OnLeaf callback", ErrUncacheable)
	case o.RecordHistory:
		return fmt.Errorf("%w: RecordHistory", ErrUncacheable)
	}
	return nil
}

// appendImplementation appends the behavioral canonical encoding of im
// driven by the k proposal values the pipeline will explore.
func appendImplementation(b []byte, im *program.Implementation, k int) ([]byte, error) {
	if im == nil {
		return nil, fmt.Errorf("rescache: nil implementation")
	}
	starts := make([]types.Invocation, k)
	for v := range starts {
		starts[v] = types.Propose(v)
	}
	enc, err := explore.CanonicalImplementation(im, starts)
	if err != nil {
		return nil, err
	}
	return appendBytes(b, enc), nil
}

// appendZoo keys the classification pipeline: the encoding of every zoo
// entry (spec and each initial state), its literature numbers (they are
// echoed into the report), and the classification bounds. A zoo change in
// a new binary therefore misses old entries. The zoo is compiled into the
// binary, so the encoding is computed once per process (zooKey).
func appendZoo(b []byte) ([]byte, error) {
	z, err := zooKey()
	if err != nil {
		return nil, err
	}
	return append(b, z...), nil
}

// zooKey is appendZoo's encoding, computed on first use: re-tabulating
// every zoo spec made each classification key cost milliseconds.
var zooKey = sync.OnceValues(func() ([]byte, error) {
	entries := hierarchy.Zoo()
	var b []byte
	b = appendInt(b, int64(len(entries)))
	for _, e := range entries {
		b = appendInt(b, int64(len(e.Inits)))
		for _, init := range e.Inits {
			b = appendSpec(b, e.Spec, init)
		}
		b = appendString(b, e.Consensus)
		b = appendString(b, e.HM)
	}
	b = appendInt(b, hierarchy.DefaultMaxK)
	b = appendInt(b, hierarchy.DefaultReachLimit)
	return b, nil
})

// appendSpec encodes one spec+init behaviorally when its reachable state
// space is bounded, and structurally otherwise (some zoo members — fetch-
// and-add, fetch-and-cons — are legitimately unbounded). The structural
// form identifies the type by name, shape, and alphabet; keyMagic covers
// behavioral changes behind an unchanged structure, since the zoo ships
// with the binary.
func appendSpec(b []byte, spec *types.Spec, init types.State) []byte {
	if enc, err := explore.CanonicalSpec(spec, init); err == nil {
		b = append(b, 'B')
		return appendBytes(b, enc)
	}
	b = append(b, 'S')
	b = appendString(b, spec.Name)
	b = appendInt(b, int64(spec.Ports))
	b = appendBool(b, spec.Oblivious)
	b = appendBool(b, spec.Deterministic)
	b = appendInt(b, int64(len(spec.Alphabet)))
	for _, inv := range spec.Alphabet {
		b = appendString(b, inv.Op)
		b = appendInt(b, int64(inv.A))
		b = appendInt(b, int64(inv.B))
	}
	b = appendString(b, fmt.Sprintf("%T=%v", init, init))
	return b
}

// appendSynthesis keys the synthesis pipeline: each object's behavioral
// spec encoding, initial state, and effective per-process ports, plus the
// normalized search options.
func appendSynthesis(b []byte, objs []synth.Object, opts synth.Options) ([]byte, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("rescache: synthesis without objects")
	}
	b = appendInt(b, int64(len(objs)))
	for _, o := range objs {
		b = appendString(b, o.Name)
		enc, err := explore.CanonicalSpec(o.Spec, o.Init)
		if err != nil {
			return nil, err
		}
		b = appendBytes(b, enc)
		for p := 0; p < 2; p++ {
			b = appendInt(b, int64(o.Port(p)))
		}
	}
	b = appendInt(b, int64(opts.Depth))
	b = appendBool(b, opts.Symmetric)
	if opts.Relabel != nil {
		b = append(b, 1)
		for p := 0; p < 2; p++ {
			b = appendInt(b, int64(len(opts.Relabel[p])))
			for _, o := range opts.Relabel[p] {
				b = appendInt(b, int64(o))
			}
		}
	} else {
		b = append(b, 0)
	}
	budget := opts.Budget
	if budget == 0 {
		budget = synth.DefaultBudget
	}
	b = appendInt(b, budget)
	return b, nil
}

// appendExplore appends the verdict-relevant exploration options. MaxDepth
// caps every path (its default is part of the verdict); Memoize changes
// the reported MemoHits counter; an enabled fault model changes every
// verdict. Parallelism, symmetry reduction, progress hooks, checkpoint
// hooks, and the soft stops (MaxNodes, StallAfter, deadlines) are all
// excluded: completed reports are identical across them, and runs they cut
// short are Partial and never stored.
func appendExplore(b []byte, o explore.Options) []byte {
	depth := o.MaxDepth
	if depth == 0 {
		depth = explore.DefaultMaxDepth
	}
	b = appendInt(b, int64(depth))
	b = appendBool(b, o.Memoize)
	if o.Faults.Enabled() {
		b = append(b, 1)
		b = appendInt(b, int64(o.Faults.MaxCrashes))
		b = appendInt(b, int64(o.Faults.Mode))
		b = appendInt(b, int64(o.Faults.MaxRecoveries))
	} else {
		b = append(b, 0)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
