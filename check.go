package waitfree

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"waitfree/internal/core"
	"waitfree/internal/explore"
	"waitfree/internal/hierarchy"
	"waitfree/internal/rescache"
	"waitfree/internal/synth"
)

// This file is the unified verification entry point. Every pipeline the
// library offers — consensus checking, Section 4.2 bound computation,
// Theorem 5 register elimination, zoo classification, and protocol
// synthesis — runs behind one call, Check(ctx, Request), returning one
// JSON-marshalable Report. The context gives callers cancellation and
// deadlines; Request.Explore.OnProgress gives them live engine Stats.

// CheckKind selects the pipeline a Request runs.
type CheckKind string

// The five pipelines.
const (
	// KindConsensus explores every execution of Request.Implementation and
	// checks agreement, validity, and wait-freedom (Request.Values-valued;
	// 0 means binary).
	KindConsensus CheckKind = "consensus"
	// KindBound runs the Section 4.2 analysis: like KindConsensus with the
	// proposal-value range taken from the implementation's target type, but
	// failing verification is an error (bounds only exist for correct
	// wait-free inputs).
	KindBound CheckKind = "bound"
	// KindElimination runs the constructive Theorem 5 pipeline on
	// Request.Implementation; if Request.Substrate is set, via the Section
	// 5.3 route.
	KindElimination CheckKind = "elimination"
	// KindClassification classifies the built-in type zoo.
	KindClassification CheckKind = "classification"
	// KindSynthesis searches for a 2-process consensus protocol over
	// Request.Objects, re-verifying any protocol found with the explorer.
	KindSynthesis CheckKind = "synthesis"
)

// ErrBadRequest is the sentinel wrapped by every Request validation
// failure.
var ErrBadRequest = errors.New("waitfree: invalid check request")

// Request selects and parameterizes one verification pipeline.
type Request struct {
	// Kind selects the pipeline.
	Kind CheckKind
	// Implementation is the subject of consensus/bound/elimination checks.
	Implementation *Implementation
	// Values is the proposal-value range k for KindConsensus (0 = 2).
	Values int
	// Explore configures every exploration the pipeline runs: memoization,
	// depth budget, parallelism, symmetry reduction (Explore.Symmetry
	// explores one tree per process-permutation orbit when the
	// implementation qualifies, with an identical report), the fault model
	// (Explore.Faults enumerates crash schedules exhaustively), and the
	// OnProgress/ProgressInterval observability hooks.
	Explore ExploreOptions
	// MaxK bounds the Section 5.2 witness search of KindElimination
	// (0 = the zoo's bound, hierarchy.DefaultMaxK).
	MaxK int
	// Substrate, if set, switches KindElimination to the Section 5.3
	// route: one-use bits realized from this register-free 2-process
	// consensus implementation.
	Substrate *Implementation
	// Objects and Synthesis drive KindSynthesis.
	Objects   []SynthObject
	Synthesis SynthOptions
	// Cache, if set, fronts the pipeline with the content-addressed
	// result cache (OpenCache): a request whose canonical key is already
	// stored returns the stored report — byte-identical JSON to a fresh
	// run — without exploring anything. Fresh conclusive reports are
	// stored on the way out; partial, degraded, resumed, and erroring
	// runs are never cached, and requests the cache cannot key
	// (ErrUncacheable, unencodable implementations) bypass it. Under an
	// active cache the report is canonicalized: Elapsed is zero and the
	// observational Stats blocks are omitted, so cold and warm runs
	// marshal identically. Report.Cache describes what the cache did.
	Cache *Cache
}

// SynthesisReport is the synthesis half of the Report union.
type SynthesisReport struct {
	// Verdict is "found", "impossible" (space exhausted, no protocol
	// within the bound), or "unknown" (budget exhausted).
	Verdict string `json:"verdict"`
	// Strategy is the formatted protocol when Verdict is "found".
	Strategy string `json:"strategy,omitempty"`
	// Assignments and Configs report search effort.
	Assignments int64 `json:"assignments"`
	Configs     int64 `json:"configs"`
	// Reverification is the explorer's independent check of the found
	// protocol.
	Reverification *ConsensusReport `json:"reverification,omitempty"`
	// StrategyMap is the raw strategy (not marshaled; strategies are
	// keyed by structs).
	StrategyMap Strategy `json:"-"`
}

// Found reports whether a protocol was synthesized.
func (r *SynthesisReport) Found() bool { return r.Verdict == "found" }

// ReportSchema is the version stamped into every Report's "schema"
// field. It names the JSON shape, not the verdict semantics: bump it when
// a field is renamed, retyped, or removed, so consumers (and the golden
// schema test) catch the break instead of silently misreading reports.
const ReportSchema = 1

// ErrBadReport is the sentinel wrapped by DecodeReport validation
// failures: bytes that do not parse as a Report, carry an unknown schema
// version, or name an unknown kind.
var ErrBadReport = errors.New("waitfree: invalid report")

// Report is the JSON-marshalable union returned by Check: exactly one of
// the pipeline fields is populated, discriminated by Kind.
type Report struct {
	// Schema is ReportSchema at marshal time; DecodeReport validates it.
	Schema  int           `json:"schema"`
	Kind    CheckKind     `json:"kind"`
	Elapsed time.Duration `json:"elapsed_ns"`

	// Consensus carries KindConsensus and KindBound results.
	Consensus *ConsensusReport `json:"consensus,omitempty"`
	// Elimination carries KindElimination results.
	Elimination *EliminationReport `json:"elimination,omitempty"`
	// Classifications carries KindClassification results, in zoo order.
	Classifications []*Classification `json:"classifications,omitempty"`
	// Synthesis carries KindSynthesis results.
	Synthesis *SynthesisReport `json:"synthesis,omitempty"`

	// Checkpoint is the resumable frontier of a cancelled KindConsensus or
	// KindBound run, lifted out of the partial consensus report: feed it
	// back through Request.Explore.ResumeFrom (the CLIs' -checkpoint flag
	// round-trips it through a JSON file). Completed runs never carry one.
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`

	// Cache describes what Request.Cache did for this request (nil when
	// no cache was configured). Deliberately excluded from the JSON form:
	// a warm hit must marshal byte-identically to the cold run that
	// stored it.
	Cache *CacheOutcome `json:"-"`
}

// OK reports whether the checked property holds: the consensus
// implementation verified, the elimination output verified, the zoo
// classified with every entry conclusive, or synthesis reached a
// conclusive verdict.
func (r *Report) OK() bool {
	switch r.Kind {
	case KindConsensus, KindBound:
		return r.Consensus != nil && r.Consensus.OK()
	case KindElimination:
		return r.Elimination != nil && r.Elimination.OutputReport != nil && r.Elimination.OutputReport.OK()
	case KindClassification:
		if len(r.Classifications) == 0 {
			return false
		}
		for _, c := range r.Classifications {
			if c.Inconclusive {
				// A truncated witness search is a bounded claim, not a
				// verdict ("stopped early", never "wrong").
				return false
			}
		}
		return true
	case KindSynthesis:
		return r.Synthesis != nil && r.Synthesis.Verdict != "unknown"
	}
	return false
}

// String renders the populated half of the union in its canonical human
// form — the same text the CLIs print without -json.
func (r *Report) String() string {
	var b strings.Builder
	switch {
	case r.Consensus != nil:
		b.WriteString(r.Consensus.String())
	case r.Elimination != nil:
		b.WriteString(r.Elimination.String())
	case len(r.Classifications) > 0:
		for _, c := range r.Classifications {
			b.WriteString(c.String())
			b.WriteByte('\n')
		}
	case r.Synthesis != nil:
		s := r.Synthesis
		fmt.Fprintf(&b, "synthesis verdict: %s (%d assignments, %d configurations)\n",
			s.Verdict, s.Assignments, s.Configs)
		if s.Strategy != "" {
			b.WriteString(s.Strategy)
		}
		if s.Reverification != nil {
			fmt.Fprintf(&b, "independent re-verification: %s\n", s.Reverification.Summary())
		}
	default:
		fmt.Fprintf(&b, "empty %s report", r.Kind)
	}
	return b.String()
}

// Check runs the pipeline selected by req under ctx and returns its
// report. Explicit cancellation stops the underlying engines promptly
// (within one counter-flush period, microseconds in practice) and
// surfaces as ctx.Err(). For KindConsensus, deadline expiry and the soft
// stops in req.Explore (MaxNodes, StallAfter) instead degrade to a
// Consensus report with Partial set, a Coverage block, and a resumable
// Checkpoint — the error is nil (or a *explore.StallError) and
// Report.OK() is false. The other kinds treat partial coverage as
// inconclusive and return an error alongside the partial report. Some
// failures return both a partial report and an error (for example
// KindBound on an incorrect input returns the report carrying the
// counterexample); callers must treat a non-nil error as the verdict.
func Check(ctx context.Context, req Request) (*Report, error) {
	start := time.Now()
	if req.Explore.ResumeFrom != nil && req.Kind != KindConsensus && req.Kind != KindBound {
		return nil, fmt.Errorf("%w: Explore.ResumeFrom applies to %s and %s checks only",
			ErrBadRequest, KindConsensus, KindBound)
	}
	if req.Cache != nil {
		return checkCached(ctx, req, start)
	}
	rep, err := runPipeline(ctx, req)
	if rep != nil {
		rep.Elapsed = time.Since(start)
	}
	return rep, err
}

// runPipeline dispatches a (validated) request to its pipeline. The
// report is non-nil except on request validation failures.
func runPipeline(ctx context.Context, req Request) (*Report, error) {
	rep := &Report{Schema: ReportSchema, Kind: req.Kind}
	var err error
	switch req.Kind {
	case KindConsensus:
		if req.Implementation == nil {
			return nil, fmt.Errorf("%w: %s requires Implementation", ErrBadRequest, req.Kind)
		}
		k := req.Values
		if k == 0 {
			k = 2
		}
		rep.Consensus, err = explore.ConsensusKContext(ctx, req.Implementation, k, req.Explore)
	case KindBound:
		if req.Implementation == nil {
			return nil, fmt.Errorf("%w: %s requires Implementation", ErrBadRequest, req.Kind)
		}
		rep.Consensus, err = core.BoundContext(ctx, req.Implementation, req.Explore)
	case KindElimination:
		if req.Implementation == nil {
			return nil, fmt.Errorf("%w: %s requires Implementation", ErrBadRequest, req.Kind)
		}
		if req.Substrate != nil {
			rep.Elimination, err = core.EliminateRegistersVia53Context(ctx, req.Implementation, req.Substrate, req.Explore)
		} else {
			rep.Elimination, err = core.EliminateRegistersContext(ctx, req.Implementation, req.Explore, req.MaxK)
		}
	case KindClassification:
		rep.Classifications, err = hierarchy.ClassifyZooContext(ctx, req.Explore.Parallelism)
	case KindSynthesis:
		if len(req.Objects) == 0 {
			return nil, fmt.Errorf("%w: %s requires Objects", ErrBadRequest, req.Kind)
		}
		rep.Synthesis, err = runSynthesis(ctx, req)
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, req.Kind)
	}
	if rep.Consensus != nil {
		rep.Checkpoint = rep.Consensus.Checkpoint
	}
	return rep, err
}

// checkCached fronts runPipeline with the content-addressed result cache:
// key the request, serve a stored report on a hit, and store fresh
// conclusive reports on a miss. Any keying failure (uncacheable options,
// an implementation with no bounded canonical encoding) bypasses the
// cache and runs the pipeline normally.
func checkCached(ctx context.Context, req Request, start time.Time) (*Report, error) {
	outcome := &CacheOutcome{}
	key, kerr := rescache.RequestKey(rescache.KeySpec{
		Kind:           string(req.Kind),
		Values:         req.Values,
		MaxK:           req.MaxK,
		Implementation: req.Implementation,
		Substrate:      req.Substrate,
		Objects:        req.Objects,
		Synthesis:      req.Synthesis,
		Explore:        req.Explore,
	})
	if kerr != nil {
		outcome.Uncacheable = true
		outcome.Reason = kerr.Error()
		rep, err := runPipeline(ctx, req)
		if rep != nil {
			rep.Elapsed = time.Since(start)
			rep.Cache = outcome
		}
		return rep, err
	}
	outcome.Key = key.Hex()
	if data, ok := req.Cache.Get(key); ok {
		if rep, err := DecodeReport(data); err == nil && rep.Kind == req.Kind {
			outcome.Hit = true
			outcome.Stats = req.Cache.Stats()
			rep.Cache = outcome
			return rep, nil
		}
		// The entry's bytes verified but don't decode to a current-schema
		// report for this request (a format change across versions): treat
		// as a miss and overwrite below.
	}
	rep, err := runPipeline(ctx, req)
	if rep == nil {
		return nil, err
	}
	// Canonicalize so the report is a pure function of the request: the
	// stored bytes, this cold report, and every future warm hit marshal
	// identically.
	rep.Canonicalize()
	if err == nil && rep.storable() {
		if data, merr := json.Marshal(rep); merr == nil {
			if perr := req.Cache.Put(key, data); perr != nil {
				outcome.StoreErr = perr.Error()
			} else {
				outcome.Stored = true
			}
		}
	}
	outcome.Stats = req.Cache.Stats()
	rep.Cache = outcome
	return rep, err
}

// Canonicalize strips the observational fields that vary between
// otherwise-identical runs — wall-clock Elapsed and the engine Stats
// blocks — so a report becomes a pure function of its request: a cold
// run, a cache hit, and a checkpoint-resumed rerun all marshal
// byte-identically. The result cache and the waitfreed server apply it to
// every report they store or serve.
func (r *Report) Canonicalize() {
	r.Elapsed = 0
	for _, cr := range r.consensusReports() {
		cr.Stats = nil
	}
}

// DecodeReport is the round-trip companion of Report's JSON form: it
// parses data, validates the schema stamp and the kind discriminator, and
// returns the report. Bytes from a different schema version (including
// pre-stamp reports, whose missing field decodes as 0) wrap ErrBadReport,
// so consumers fail loudly instead of misreading a changed shape.
func DecodeReport(data []byte) (*Report, error) {
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadReport, err)
	}
	if rep.Schema != ReportSchema {
		return nil, fmt.Errorf("%w: schema %d (this library reads %d)", ErrBadReport, rep.Schema, ReportSchema)
	}
	switch rep.Kind {
	case KindConsensus, KindBound, KindElimination, KindClassification, KindSynthesis:
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadReport, rep.Kind)
	}
	// A violation object without a kind decodes to the zero kind, which
	// no run produces and which would re-marshal as an undecodable tag.
	for _, cr := range rep.consensusReports() {
		if v := cr.Violation; v != nil && v.Kind == 0 {
			return nil, fmt.Errorf("%w: violation without a kind", ErrBadReport)
		}
	}
	return rep, nil
}

// consensusReports collects every exploration report embedded in the
// union: the consensus/bound result, the elimination endpoints, and the
// synthesis re-verification.
func (r *Report) consensusReports() []*ConsensusReport {
	var out []*ConsensusReport
	if r.Consensus != nil {
		out = append(out, r.Consensus)
	}
	if r.Elimination != nil {
		if r.Elimination.InputReport != nil {
			out = append(out, r.Elimination.InputReport)
		}
		if r.Elimination.OutputReport != nil {
			out = append(out, r.Elimination.OutputReport)
		}
	}
	if r.Synthesis != nil && r.Synthesis.Reverification != nil {
		out = append(out, r.Synthesis.Reverification)
	}
	return out
}

// storable reports whether the result may enter the cache: only complete,
// exact runs qualify. Partial coverage proves nothing beyond its prefix,
// a Degraded run's counters depend on eviction order, and a checkpoint
// marks unfinished work.
func (r *Report) storable() bool {
	if r.Checkpoint != nil {
		return false
	}
	for _, cr := range r.consensusReports() {
		if cr.Partial || cr.Degraded || cr.Checkpoint != nil {
			return false
		}
	}
	return true
}

// runSynthesis drives the synthesis pipeline: search, then independent
// re-verification of any protocol found. Exhaustion verdicts (no protocol
// within the bound, budget spent) are reported in the Verdict field, not
// as errors.
func runSynthesis(ctx context.Context, req Request) (*SynthesisReport, error) {
	st, stats, err := synth.SearchContext(ctx, req.Objects, req.Synthesis)
	rep := &SynthesisReport{}
	if stats != nil {
		rep.Assignments = stats.Assignments
		rep.Configs = stats.Configs
	}
	switch {
	case errors.Is(err, synth.ErrNoProtocol):
		rep.Verdict = "impossible"
		return rep, nil
	case errors.Is(err, synth.ErrBudget):
		rep.Verdict = "unknown"
		return rep, nil
	case err != nil:
		return rep, err
	}
	rep.Verdict = "found"
	rep.StrategyMap = st
	rep.Strategy = st.Format(req.Objects)
	im := synth.Implementation("synthesized", req.Objects, st, req.Synthesis)
	rep.Reverification, err = explore.ConsensusKContext(ctx, im, 2, req.Explore)
	if err != nil {
		return rep, err
	}
	if rep.Reverification.Partial {
		// An incomplete re-verification condemns nothing: report it as
		// inconclusive rather than as a failed protocol.
		return rep, fmt.Errorf("waitfree: synthesized protocol re-verification stopped with partial coverage: %s", rep.Reverification.Summary())
	}
	if !rep.Reverification.OK() {
		return rep, fmt.Errorf("waitfree: synthesized protocol failed re-verification: %s", rep.Reverification.Summary())
	}
	return rep, nil
}
