// Package server is the waitfreed verification daemon: an HTTP/JSON API
// that accepts verification jobs over a versioned wire schema, runs them
// on a bounded worker pool, streams live progress over SSE, persists job
// state in internal/envelope files so in-flight jobs survive a restart
// and resume from their last autosaved checkpoint, and fronts everything
// with the content-addressed result cache.
//
// A waitfree.Request holds Go closures (Implementation machines), so it
// cannot travel over a wire. The submission schema instead names a
// protocol from the waitfree.Protocols registry plus the verdict-relevant
// subset of the exploration options, versioned by an explicit "api"
// field:
//
//	{"api": "v1", "kind": "consensus", "protocol": "cas", "procs": 4,
//	 "explore": {"memoize": true, "symmetry": "auto"}}
//
// See DESIGN.md section 11 for the full schema and the job lifecycle.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"waitfree"
	"waitfree/internal/synth"
)

// APIVersion is the wire schema version this server speaks. Submissions
// must carry it verbatim in their "api" field; an unknown or missing
// version is rejected, never guessed at.
const APIVersion = "v1"

// WireRequest is the v1 job submission schema: everything a
// waitfree.Request expresses, minus the closures, which are resolved by
// name through the protocol and object-set registries.
type WireRequest struct {
	// API is the wire schema version; must be APIVersion.
	API string `json:"api"`
	// Kind is the pipeline: consensus, bound, elimination,
	// classification, or synthesis.
	Kind string `json:"kind"`
	// Protocol names a waitfree.Protocols registry entry; required for
	// consensus, bound, and elimination.
	Protocol string `json:"protocol,omitempty"`
	// Procs picks the process count for the scalable protocols (0 = 2).
	Procs int `json:"procs,omitempty"`
	// Values is the proposal-value range for consensus (0 = binary).
	Values int `json:"values,omitempty"`
	// MaxK bounds the elimination witness search (0 = hierarchy.DefaultMaxK).
	MaxK int `json:"max_k,omitempty"`
	// Substrate names a register-free protocol for elimination's Section
	// 5.3 route; "" uses the protocol's registry default (noisysticky-r
	// declares one), which is the deterministic route for the others.
	Substrate string `json:"substrate,omitempty"`
	// Objects names a waitfree.ObjectSets registry entry; required for
	// synthesis.
	Objects string `json:"objects,omitempty"`
	// Synthesis configures the synthesis search.
	Synthesis *WireSynthesis `json:"synthesis,omitempty"`
	// Explore is the verdict-relevant exploration option subset.
	Explore WireExplore `json:"explore,omitempty"`
	// TimeoutMS is the per-job wall-clock deadline in milliseconds (0 =
	// none), capped by the server's Options.MaxTimeout. A job whose
	// deadline expires finishes like a -timeout CLI run: resumable kinds
	// degrade to a done-but-partial report carrying a checkpoint, the
	// others fail with a deadline error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WireExplore is the wire form of the verdict-relevant
// waitfree.ExploreOptions subset, plus the soft-stop budgets. The
// observability and checkpoint hooks are the server's own (it feeds SSE
// and the durable job store with them) and are not on the wire.
type WireExplore struct {
	// MaxDepth is the per-path access budget (0 = the engine default).
	MaxDepth int `json:"max_depth,omitempty"`
	// Memoize deduplicates configurations.
	Memoize bool `json:"memoize,omitempty"`
	// Parallelism bounds the engine's worker goroutines (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// Symmetry is "off", "auto", or "require" ("" = auto).
	Symmetry string `json:"symmetry,omitempty"`
	// Faults enables exhaustive crash exploration.
	Faults *WireFaults `json:"faults,omitempty"`
	// MaxNodes is the soft node budget (0 = unbounded).
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// StallAfterMS arms the stall watchdog, in milliseconds (0 = off).
	StallAfterMS int64 `json:"stall_after_ms,omitempty"`
}

// WireFaults is the wire form of the crash fault model.
type WireFaults struct {
	// MaxCrashes bounds crash events per execution; 0 disables the model.
	MaxCrashes int `json:"max_crashes"`
	// Mode is "crash-stop", "crash-start", or "crash-recovery"
	// ("" = crash-stop).
	Mode string `json:"mode,omitempty"`
	// MaxRecoveries bounds total recoveries per execution; requires mode
	// "crash-recovery".
	MaxRecoveries int `json:"max_recoveries,omitempty"`
}

// WireSynthesis is the wire form of the synthesis search options.
type WireSynthesis struct {
	Depth     int   `json:"depth,omitempty"`
	Symmetric bool  `json:"symmetric,omitempty"`
	Budget    int64 `json:"budget,omitempty"`
}

// WireError is the {"error": {"code", "message"}} body of every error
// response and failed job: Code is a stable waitfree.ErrorCode (plus the
// server's own not_found / draining / queue_full), Message is human text.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *WireError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Server-side error codes outside the library taxonomy.
const (
	// CodeNotFound: no job with that id.
	CodeNotFound = "not_found"
	// CodeDraining: the server is shutting down and admits no new jobs.
	CodeDraining = "draining"
	// CodeQueueFull: the admission queue is at capacity.
	CodeQueueFull = "queue_full"
	// CodeConflict: the operation does not apply to the job's state.
	CodeConflict = "conflict"
	// CodeStorageDegraded: the durable job store cannot persist the job
	// (disk failure survived the retry policy); the daemon stays up and
	// keeps serving reads, but admission is refused rather than accepting
	// a job a crash could lose.
	CodeStorageDegraded = "storage_degraded"
)

func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: %s", waitfree.ErrBadRequest, fmt.Sprintf(format, args...))
}

// Compile resolves a wire request into a runnable waitfree.Request:
// registry lookups for the protocol closures, option translation, and
// strict validation — unknown versions, kinds, names, and fields that do
// not apply to the kind are all rejected with ErrBadRequest /
// ErrUnknownProtocol so a malformed submission fails at the door, not on
// a worker.
func Compile(w *WireRequest) (waitfree.Request, error) {
	var req waitfree.Request
	if w.API != APIVersion {
		return req, badRequest("api %q is not %q (the field is required)", w.API, APIVersion)
	}
	if w.TimeoutMS < 0 {
		return req, badRequest("negative timeout_ms %d", w.TimeoutMS)
	}
	req.Kind = waitfree.CheckKind(w.Kind)
	exp, err := compileExplore(w.Explore)
	if err != nil {
		return req, err
	}
	req.Explore = exp

	needProtocol := func() error {
		if w.Protocol == "" {
			return badRequest("kind %q requires a protocol name", w.Kind)
		}
		im, err := waitfree.BuildProtocol(w.Protocol, w.Procs)
		if err != nil {
			return err
		}
		req.Implementation = im
		return nil
	}
	switch req.Kind {
	case waitfree.KindConsensus:
		if err := w.rejectInapplicable("protocol", "procs", "values"); err != nil {
			return req, err
		}
		if err := needProtocol(); err != nil {
			return req, err
		}
		req.Values = w.Values
	case waitfree.KindBound:
		if err := w.rejectInapplicable("protocol", "procs"); err != nil {
			return req, err
		}
		if err := needProtocol(); err != nil {
			return req, err
		}
	case waitfree.KindElimination:
		if err := w.rejectInapplicable("protocol", "procs", "max_k", "substrate"); err != nil {
			return req, err
		}
		if err := needProtocol(); err != nil {
			return req, err
		}
		req.MaxK = w.MaxK
		substrate := w.Substrate
		if substrate == "" {
			// The registry knows which protocols only eliminate via the
			// Section 5.3 route (noisysticky-r names its own substrate).
			info, _ := waitfree.LookupProtocol(w.Protocol)
			substrate = info.Substrate
		}
		if substrate != "" {
			sub, err := waitfree.BuildProtocol(substrate, 0)
			if err != nil {
				return req, err
			}
			req.Substrate = sub
		}
	case waitfree.KindClassification:
		if err := w.rejectInapplicable(); err != nil {
			return req, err
		}
		// Classification runs the zoo under its own fixed exploration
		// discipline and reads only explore.parallelism; the options it
		// would silently ignore fail at the door instead. max_depth and
		// symmetry are still accepted: they are in use on classification
		// requests (the service benchmark varies them to draw fresh and
		// repeat cache keys), and max_depth is part of the cache key.
		e := w.Explore
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"faults", e.Faults != nil},
			{"memoize", e.Memoize},
			{"max_nodes", e.MaxNodes != 0},
			{"stall_after_ms", e.StallAfterMS != 0},
		} {
			if f.set {
				return req, badRequest("kind %q takes no explore.%s", w.Kind, f.name)
			}
		}
	case waitfree.KindSynthesis:
		if err := w.rejectInapplicable("objects", "synthesis"); err != nil {
			return req, err
		}
		if w.Objects == "" {
			return req, badRequest("kind %q requires an object-set name", w.Kind)
		}
		objs, err := waitfree.BuildObjectSet(w.Objects)
		if err != nil {
			return req, err
		}
		req.Objects = objs
		if w.Synthesis != nil {
			req.Synthesis = waitfree.SynthOptions{
				Depth:     w.Synthesis.Depth,
				Symmetric: w.Synthesis.Symmetric,
				Budget:    w.Synthesis.Budget,
			}
		}
		if req.Synthesis.Depth == 0 {
			req.Synthesis.Depth = synth.DefaultDepth
		}
	default:
		return req, badRequest("unknown kind %q", w.Kind)
	}
	return req, nil
}

// rejectInapplicable enforces the per-kind field discipline Compile
// promises: a submission carrying kind-specific fields its kind ignores
// is rejected rather than silently accepted, both to fail bad clients at
// the door and because ignored extras would still perturb the persisted
// wire bytes used for job identity. allowed lists the wire names of the
// kind-specific fields this kind consumes; Explore applies to every kind.
func (w *WireRequest) rejectInapplicable(allowed ...string) error {
	ok := make(map[string]bool, len(allowed))
	for _, name := range allowed {
		ok[name] = true
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"protocol", w.Protocol != ""},
		{"procs", w.Procs != 0},
		{"values", w.Values != 0},
		{"max_k", w.MaxK != 0},
		{"substrate", w.Substrate != ""},
		{"objects", w.Objects != ""},
		{"synthesis", w.Synthesis != nil},
	} {
		if f.set && !ok[f.name] {
			return badRequest("kind %q takes no %s", w.Kind, f.name)
		}
	}
	return nil
}

// compileExplore translates the wire option subset.
func compileExplore(w WireExplore) (waitfree.ExploreOptions, error) {
	var o waitfree.ExploreOptions
	if w.MaxDepth < 0 || w.Parallelism < 0 || w.MaxNodes < 0 || w.StallAfterMS < 0 {
		return o, badRequest("negative explore option")
	}
	o.MaxDepth = w.MaxDepth
	o.Memoize = w.Memoize
	o.Parallelism = w.Parallelism
	o.MaxNodes = w.MaxNodes
	o.StallAfter = time.Duration(w.StallAfterMS) * time.Millisecond
	sym := w.Symmetry
	if sym == "" {
		sym = "auto"
	}
	mode, err := waitfree.ParseSymmetryMode(sym)
	if err != nil {
		return o, fmt.Errorf("%w: %v", waitfree.ErrBadRequest, err)
	}
	o.Symmetry = mode
	if w.Faults != nil {
		if w.Faults.MaxCrashes <= 0 && w.Faults.MaxRecoveries > 0 {
			return o, badRequest("faults.max_recoveries requires a positive faults.max_crashes")
		}
		if w.Faults.MaxCrashes > 0 {
			fm := w.Faults.Mode
			if fm == "" {
				fm = "crash-stop"
			}
			mode, err := waitfree.ParseFaultMode(fm)
			if err != nil {
				return o, fmt.Errorf("%w: %v", waitfree.ErrBadRequest, err)
			}
			o.Faults = waitfree.FaultModel{
				MaxCrashes:    w.Faults.MaxCrashes,
				Mode:          mode,
				MaxRecoveries: w.Faults.MaxRecoveries,
			}
			// Validate eagerly (MaxRecoveries without crash-recovery mode,
			// negative bounds) so a malformed model fails at the door, not
			// on a pool worker.
			if err := o.Faults.Validate(); err != nil {
				return o, fmt.Errorf("%w: %v", waitfree.ErrBadRequest, err)
			}
		}
	}
	return o, nil
}

// Resumable reports whether the wire request's kind supports engine
// checkpoint resume (only the single-exploration consensus/bound
// pipelines do; the others rerun from scratch after a restart).
func (w *WireRequest) Resumable() bool {
	k := waitfree.CheckKind(w.Kind)
	return k == waitfree.KindConsensus || k == waitfree.KindBound
}

// DecodeWire parses and compiles a submission body, returning both the
// wire form (persisted verbatim) and the runnable request.
func DecodeWire(body []byte) (*WireRequest, waitfree.Request, error) {
	w := &WireRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w); err != nil {
		return nil, waitfree.Request{}, badRequest("parse submission: %v", err)
	}
	req, err := Compile(w)
	if err != nil {
		return nil, waitfree.Request{}, err
	}
	return w, req, nil
}
