// Package waitfree is an executable reproduction of Bazzi, Neiger, and
// Peterson, "On the Use of Registers in Achieving Wait-Free Consensus"
// (PODC 1994).
//
// The library makes the paper's objects first-class and its theorems
// runnable:
//
//   - Types are 5-tuples T = <n, Q, I, R, delta> (Spec); a zoo of standard
//     concurrent data types is provided, including the paper's one-use bit.
//   - Implementations are sets of typed objects plus one deterministic
//     program per process (Implementation, Machine).
//   - The execution-tree explorer enumerates all interleavings and
//     nondeterministic resolutions of an implementation, decides
//     agreement/validity/wait-freedom for consensus (Check with
//     KindConsensus), and computes the Section 4.2 access bounds
//     (KindBound).
//   - KindElimination is the constructive Theorem 5: it rewrites a
//     consensus implementation over objects of a non-trivial deterministic
//     type T plus SRSW-bit registers into one over objects of T alone,
//     via one-use bits, and verifies the result.
//   - KindClassification reports triviality, the Section 5.1/5.2
//     witnesses, and hierarchy positions for the whole type zoo.
//
// Check (check.go) is the one verification entry point: every pipeline
// runs behind it and returns one JSON-marshalable Report.
//
// The deeper machinery lives in internal packages (types, program,
// explore, linearize, registers, onebit, hierarchy, consensus, core,
// universal); this package re-exports the surfaces a downstream user
// needs. The examples directory shows the API end to end, and DESIGN.md /
// EXPERIMENTS.md map every result of the paper to code and measurements.
package waitfree

import (
	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/durable"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/hierarchy"
	"waitfree/internal/multivalue"
	"waitfree/internal/onebit"
	"waitfree/internal/program"
	"waitfree/internal/rescache"
	"waitfree/internal/synth"
	"waitfree/internal/types"
	"waitfree/internal/universal"
)

// Core vocabulary: types as 5-tuples and their constituents.
type (
	// Spec is a concurrent data type T = <n, Q, I, R, delta>.
	Spec = types.Spec
	// State is an object state (a comparable, immutable value).
	State = types.State
	// Invocation is an access invocation.
	Invocation = types.Invocation
	// Response is an access response.
	Response = types.Response
	// Transition is one allowed (next state, response) outcome.
	Transition = types.Transition
)

// Implementations: objects plus per-process deterministic programs.
type (
	// Implementation is a Section 2.2 implementation of a target type.
	Implementation = program.Implementation
	// ObjectDecl declares one implementing object.
	ObjectDecl = program.ObjectDecl
	// Machine is a process's deterministic program.
	Machine = program.Machine
	// FuncMachine adapts two functions to the Machine interface.
	FuncMachine = program.FuncMachine
	// Action is one machine step: an object invocation or a return.
	Action = program.Action
)

// Machine action constructors.
var (
	// InvokeAction builds an object invocation action.
	InvokeAction = program.InvokeAction
	// ReturnAction builds a completion action.
	ReturnAction = program.ReturnAction
)

// Exploration and verification.
type (
	// ExploreOptions configures exhaustive exploration.
	ExploreOptions = explore.Options
	// ConsensusReport is the verdict of checking a consensus
	// implementation over all proposal vectors and interleavings.
	ConsensusReport = explore.ConsensusReport
	// SymmetryMode selects process-permutation symmetry reduction for the
	// consensus checks (ExploreOptions.Symmetry).
	SymmetryMode = explore.SymmetryMode
	// WalkSchedule is the adversary of one Walk: a seed for every
	// scheduling and nondeterministic choice, plus per-process crash and
	// recovery points.
	WalkSchedule = explore.Schedule
)

// Symmetry reduction modes (ExploreOptions.Symmetry).
const (
	// SymmetryOff explores every proposal-vector tree.
	SymmetryOff = explore.SymmetryOff
	// SymmetryAuto reduces when the implementation qualifies and silently
	// explores unreduced otherwise.
	SymmetryAuto = explore.SymmetryAuto
	// SymmetryRequire reduces or fails with ErrNotSymmetric.
	SymmetryRequire = explore.SymmetryRequire
)

// Symmetry vocabulary helpers.
var (
	// ParseSymmetryMode parses the -symmetry CLI tags ("off", "auto",
	// "require").
	ParseSymmetryMode = explore.ParseSymmetryMode
	// ErrNotSymmetric is the sentinel wrapped when SymmetryRequire is set
	// but the run cannot be symmetry-reduced.
	ErrNotSymmetric = explore.ErrNotSymmetric
)

// Fault injection: exhaustive crash exploration, structured panic
// recovery, and resumable checkpointed runs.
type (
	// FaultModel describes the crash faults an exhaustive exploration
	// injects (ExploreOptions.Faults); the zero model disables them.
	FaultModel = faults.Model
	// FaultMode selects where crashes may be placed.
	FaultMode = faults.Mode
	// PanicError is a panic in protocol code converted into a structured
	// error by an engine's recovery layer.
	PanicError = faults.PanicError
	// Checkpoint is the resumable frontier snapshot of a cancelled
	// consensus exploration (ExploreOptions.ResumeFrom, Report.Checkpoint).
	Checkpoint = explore.Checkpoint
)

// Crash placement modes.
const (
	// CrashStop is the paper's failure model: a process may stop
	// permanently before any of its object accesses.
	CrashStop = faults.CrashStop
	// CrashBeforeFirstStep enumerates only initial crashes: processes that
	// never perform any object access.
	CrashBeforeFirstStep = faults.CrashBeforeFirstStep
	// CrashRecovery lets crashed processes re-enter from their recovery
	// section — volatile state reset, shared objects persisting — with
	// FaultModel.MaxRecoveries bounding total recoveries per execution.
	CrashRecovery = faults.CrashRecovery
)

// Fault vocabulary helpers.
var (
	// ParseFaultMode parses the -fault-mode CLI tags ("crash-stop",
	// "crash-start", "crash-recovery").
	ParseFaultMode = faults.ParseMode
	// ErrBadFaultModel is the sentinel wrapped by FaultModel validation
	// failures.
	ErrBadFaultModel = faults.ErrBadModel
	// ErrBadCheckpoint is the sentinel returned when ResumeFrom does not
	// match the run it is offered to or carries a malformed tree.
	ErrBadCheckpoint = explore.ErrBadCheckpoint
)

// Durable runs: checksummed checkpoint files, partial-coverage reports,
// and the stall watchdog (ExploreOptions.MaxNodes, StallAfter,
// CheckpointEvery/OnCheckpoint; see DESIGN.md section 9).
type (
	// Coverage describes how far a partial consensus run got before a soft
	// budget, the deadline, or the stall watchdog stopped it
	// (ConsensusReport.Coverage).
	Coverage = explore.Coverage
	// StallError reports a worker flagged by the ExploreOptions.StallAfter
	// watchdog, identifying the tree, depth, and configuration it was
	// stuck on.
	StallError = explore.StallError
	// WorkerHeartbeat is one worker's liveness record inside an
	// ExploreStats snapshot.
	WorkerHeartbeat = explore.WorkerHeartbeat
	// CorruptCheckpointError describes an unreadable checkpoint file and
	// carries the longest salvageable tree prefix, if any.
	CorruptCheckpointError = durable.CorruptError
)

// SaveCheckpoint atomically writes a checksummed checkpoint file
// (temp-file rename, fsync, transient-error retry).
func SaveCheckpoint(path string, cp *Checkpoint) error { return durable.SaveFS(nil, path, cp) }

// LoadCheckpoint reads a checkpoint file written by SaveCheckpoint,
// retrying transient read errors and verifying every checksum; corruption — a bare-JSON file from before
// the durable format included — surfaces as ErrCorruptCheckpoint with any
// salvageable prefix attached to the *CorruptCheckpointError.
func LoadCheckpoint(path string) (*Checkpoint, error) { return durable.LoadFS(nil, path) }

// Durable checkpoint files.
var (
	// ErrCorruptCheckpoint is the sentinel wrapped by every checkpoint
	// corruption error.
	ErrCorruptCheckpoint = durable.ErrCorruptCheckpoint
	// ErrNotWaitFree: an access-bound or elimination input failed
	// verification (bounds only exist for correct wait-free inputs).
	ErrNotWaitFree = core.ErrNotWaitFree
	// ErrInconclusive: a pipeline exploration stopped with partial
	// coverage (MaxNodes, deadline, stall watchdog) before it could settle
	// the property; resume from the accompanying report's Checkpoint.
	ErrInconclusive = core.ErrInconclusive
)

// Content-addressed result cache (Request.Cache; see DESIGN.md section
// 10): a request's canonical SHA-256 key covers everything that affects
// its verdict — the implementation's behavior up to process permutation,
// specs, kind, parameters, and the verdict-relevant exploration options —
// so repeated and symmetry-equivalent requests are served from memory or
// disk with byte-identical JSON instead of re-explored.
type (
	// Cache is the two-tier (memory LRU + durable disk) result cache.
	Cache = rescache.Cache
	// CacheOptions configures OpenCache: disk directory and memory
	// budget.
	CacheOptions = rescache.Options
	// CacheStats are a cache's cumulative hit/miss/store counters.
	CacheStats = rescache.Stats
	// CacheOutcome describes what the cache did for one request
	// (Report.Cache).
	CacheOutcome = rescache.Outcome
)

var (
	// OpenCache creates a result cache; with CacheOptions.Dir set,
	// entries persist across processes in checksummed envelope files.
	OpenCache = rescache.Open
	// ErrUncacheable: the request's report is not a pure function of the
	// request (resumed, degraded, or callback-driven runs); Check
	// bypasses the cache for it.
	ErrUncacheable = rescache.ErrUncacheable
)

// Hierarchy classification.
type (
	// Classification is a zoo member's computed profile.
	Classification = hierarchy.Classification
	// Pair is a Section 5.2 minimal non-trivial pair.
	Pair = hierarchy.Pair
	// ObliviousWitness is a Section 5.1 witness.
	ObliviousWitness = hierarchy.ObliviousWitness
)

// EliminationReport records one run of the Theorem 5 pipeline.
type EliminationReport = core.Report

// Protocol synthesis (hierarchy separations made computational).
type (
	// SynthObject is one shared object available to a synthesized protocol.
	SynthObject = synth.Object
	// SynthOptions configures a synthesis search.
	SynthOptions = synth.Options
	// Strategy is a synthesized protocol.
	Strategy = synth.Strategy
)

// Synthesis sentinel errors.
var (
	// ErrNoProtocol: the synthesis space is exhausted; no protocol exists
	// within the bound.
	ErrNoProtocol = synth.ErrNoProtocol
	// ErrSynthBudget: the synthesis budget ran out; verdict unknown.
	ErrSynthBudget = synth.ErrBudget
)

// StrategyImplementation converts a synthesized strategy into a runnable
// implementation for independent re-verification.
var StrategyImplementation = synth.Implementation

// Type zoo constructors (see internal/types for the full semantics).
var (
	NewRegister       = types.Register
	NewBit            = types.Bit
	NewSRSWBit        = types.SRSWBit
	NewTestAndSet     = types.TestAndSet
	NewSwap           = types.Swap
	NewFetchAdd       = types.FetchAdd
	NewCompareSwap    = types.CompareSwap
	NewQueue          = types.Queue
	NewStack          = types.Stack
	NewStickyCell     = types.StickyCell
	NewStickyBit      = types.StickyBit
	NewConsensus      = types.Consensus
	NewOneUseBit      = types.OneUseBit
	NewWeakLeader     = types.WeakLeader
	NewNoisySticky    = types.NoisySticky
	NewAugmentedQueue = types.AugmentedQueue
	NewSRSWRegister   = types.SRSWRegister
	NewMultiConsensus = types.MultiConsensus
	NewLatchFlag      = types.LatchFlag
	NewToggle         = types.Toggle
	NewBeacon         = types.Beacon
	NewFetchAndCons   = types.FetchAndCons
)

// AuditSpec lints a type definition: declared determinism/obliviousness
// flags must match computed behavior over the reachable fragment, and
// every alphabet entry must be usable somewhere. A spec whose state space
// exceeds the exploration limit without any contradiction found audits as
// ErrAuditInconclusive, never as a silent pass.
var AuditSpec = types.Audit

// ErrAuditInconclusive is the sentinel wrapped when AuditSpec runs out of
// state budget before verifying every declared flag.
var ErrAuditInconclusive = types.ErrAuditInconclusive

// QueueStateOf encodes a queue content (front first) as a state value.
var QueueStateOf = types.QueueState

// Invocation helpers.
var (
	// Inv builds an invocation from an operation name and arguments.
	Inv = types.Inv
	// Read is the argument-free read invocation.
	Read = types.Read
	// Write builds a write(v) invocation.
	Write = types.Write
	// Propose builds the consensus propose(v) invocation.
	Propose = types.Propose
	// ValOf builds a value-bearing response.
	ValOf = types.ValOf
	// OK is the information-free acknowledgement response.
	OK = types.OK
)

// Consensus protocol library (Section 2.3 context: the canonical
// register-using protocols of Herlihy's hierarchy and their register-free
// relatives).
var (
	// TAS2Consensus is 2-process consensus from test-and-set + SRSW bits.
	TAS2Consensus = consensus.TAS2
	// Queue2Consensus is 2-process consensus from a queue + SRSW bits.
	Queue2Consensus = consensus.Queue2
	// Stack2Consensus is 2-process consensus from a stack + SRSW bits.
	Stack2Consensus = consensus.Stack2
	// FAA2Consensus is 2-process consensus from fetch-and-add + SRSW bits.
	FAA2Consensus = consensus.FAA2
	// Swap2Consensus is 2-process consensus from swap + SRSW bits.
	Swap2Consensus = consensus.Swap2
	// WeakLeader2Consensus is 2-process consensus from the nondeterministic
	// WeakLeader type + SRSW bits (Jayanti-separation context).
	WeakLeader2Consensus = consensus.WeakLeader2
	// CASConsensus is register-free n-process consensus from one
	// compare-and-swap object.
	CASConsensus = consensus.CAS
	// StickyConsensus is register-free n-process consensus from one
	// sticky cell.
	StickyConsensus = consensus.Sticky
	// AugQueueConsensus is register-free n-process consensus from one
	// augmented (peekable) queue.
	AugQueueConsensus = consensus.AugQueue
	// FetchConsConsensus is register-free n-process consensus from one
	// fetch-and-cons object, one access per process.
	FetchConsConsensus = consensus.FetchCons
	// NoisySticky2Consensus is register-free 2-process consensus from a
	// nondeterministic noisy-sticky cell (the Section 5.3 substrate).
	NoisySticky2Consensus = consensus.NoisySticky2
	// NoisySticky2RConsensus is the register-using variant, the input of
	// the Section 5.3 pipeline demonstration.
	NoisySticky2RConsensus = consensus.NoisySticky2R
	// CASRegister3Consensus is 3-process consensus from compare-and-swap
	// plus six SRSW announcement bits (a 3-process pipeline input).
	CASRegister3Consensus = consensus.CASRegister3
	// NaiveRegisterConsensus is the deliberately incorrect register-only
	// protocol (registers cannot solve 2-process consensus).
	NaiveRegisterConsensus = consensus.NaiveRegister2
	// RegisterUsingProtocols lists the Theorem 5 pipeline inputs.
	RegisterUsingProtocols = consensus.RegisterUsing
	// MultiValuedConsensus builds k-valued n-process consensus from binary
	// consensus objects plus announcement registers (bit-by-bit
	// agreement).
	MultiValuedConsensus = multivalue.FromBinary
	// MultiValuedConsensusSRSW is the 2-process pipeline-compatible
	// variant over SRSW registers.
	MultiValuedConsensusSRSW = multivalue.FromBinarySRSW
)

// Engine observability and option validation (see Check for the unified
// entry point that ties them together).
type (
	// ExploreStats is a point-in-time engine snapshot published through
	// ExploreOptions.OnProgress.
	ExploreStats = explore.Stats
)

// ErrBadExploreOptions is the sentinel wrapped by every ExploreOptions
// validation failure (incompatible or negative fields).
var ErrBadExploreOptions = explore.ErrBadOptions

// Single-tree exploration and analysis; whole verifications go through
// Check.
var (
	// ExploreContext runs the execution-tree explorer under a context
	// with explicit per-process scripts of target invocations.
	ExploreContext = explore.RunContext
	// Walk follows one execution of an implementation, chosen by a
	// WalkSchedule, through the explorer's own step semantics, and returns
	// its responses, history, schedule and final memories: the sampling
	// form of ExploreContext for instances too large to enumerate.
	Walk = explore.Walk
	// ComputeValency runs the FLP/Herlihy valency analysis of one
	// execution tree: bivalent/univalent configuration counts and the
	// critical configurations with their arbitrating objects. It judges
	// each leaf by the consensus check's leaf rule, so it refuses, with an
	// error, a protocol whose leaves disagree or decide an unproposed value.
	ComputeValency = explore.Valency
	// ExportDot renders an execution tree as Graphviz DOT.
	ExportDot = explore.Dot
)

// ValencyReport is the result of ComputeValency.
type ValencyReport = explore.ValencyReport

// The paper's machinery.
var (
	// OneUseBitArray builds the standalone Section 4.3 implementation of a
	// bounded SRSW bit from (w+1) x r one-use bits.
	OneUseBitArray = onebit.Implementation
	// OneUseBitFromType builds a one-use bit from a single object of a
	// non-trivial deterministic type (Sections 5.1/5.2).
	OneUseBitFromType = onebit.FromType
	// OneUseBitFromConsensus builds a one-use bit from a 2-process
	// consensus implementation (Section 5.3).
	OneUseBitFromConsensus = onebit.FromConsensusImplementation
	// UniversalImplementation builds Herlihy's universal construction (the
	// result that gives hierarchy levels their meaning): a wait-free
	// linearizable implementation of any deterministic type from consensus
	// objects. spec and init describe the sequential type, procs (at most
	// 8) the sharing processes, slots the log capacity in operations, and
	// alphabet every invocation the processes will use. Sample it with
	// Walk or check it with ExploreContext.
	UniversalImplementation = universal.MachineImplementation
)

// Hierarchy analyses.
var (
	// Classify classifies one type.
	Classify = hierarchy.Classify
	// FindPair searches for a Section 5.2 minimal non-trivial pair.
	FindPair = hierarchy.FindPair
	// FindObliviousWitness searches for a Section 5.1 witness.
	FindObliviousWitness = hierarchy.FindObliviousWitness
	// IsTrivial decides (bounded) the general triviality condition.
	IsTrivial = hierarchy.IsTrivial
	// IsTrivialOblivious decides the Section 5.1 triviality condition.
	IsTrivialOblivious = hierarchy.IsTrivialOblivious
)
