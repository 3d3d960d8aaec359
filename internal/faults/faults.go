// Package faults is the fault-injection vocabulary of the execution
// engine (package explore).
//
// Wait-freedom is the paper's central liveness property: every process
// decides in a bounded number of its own steps no matter how many of the
// others crash (Section 2.2). This package makes crash faults a
// first-class, exhaustively explorable dimension of the execution-tree
// explorer. A Model describes which crash schedules the explorer
// enumerates (a seeded explore.Walk places its crashes by its own
// Schedule, through the same crash and recovery edges); a PanicError is
// the structured form a panicking type spec or machine takes when the
// engine's panic recovery converts it into an error instead of letting it
// kill the process.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Mode selects which crash placements a Model enumerates.
type Mode int

const (
	// CrashStop is the paper's failure model: a process may stop
	// permanently before any of its object accesses, including after its
	// last one. The explorer branches on "process p crashes here" at every
	// configuration where p is still live.
	CrashStop Mode = iota
	// CrashBeforeFirstStep restricts crashes to processes that have not yet
	// performed any object access: only initial crashes are enumerated.
	// This is the cheap model for checking that survivors cope with
	// processes that never show up at all.
	CrashBeforeFirstStep
	// CrashRecovery is the recoverable model (Ovens 2024): crashes may be
	// placed anywhere, exactly as in CrashStop, but a crashed process may
	// later re-enter from its recovery section — private volatile state
	// reset to initial, shared register and object state persisting.
	// Model.MaxRecoveries bounds the total recoveries along any execution
	// so the state space stays finite; with MaxRecoveries=0 the mode
	// degenerates to CrashStop exactly.
	CrashRecovery
)

// String renders the mode.
func (m Mode) String() string {
	switch m {
	case CrashStop:
		return "crash-stop"
	case CrashBeforeFirstStep:
		return "crash-before-first-step"
	case CrashRecovery:
		return "crash-recovery"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// MarshalJSON renders the mode as a stable string tag.
func (m Mode) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON accepts every spelling ParseMode accepts except the empty
// tag, and the bare integers 0..2 (for hand-written checkpoints). The
// canonical tag for each mode is whatever String renders; the
// "crash-start" alias for CrashBeforeFirstStep is accepted everywhere a
// mode is decoded, but never produced.
func (m *Mode) UnmarshalJSON(b []byte) error {
	if len(b) == 1 && '0' <= b[0] && b[0] <= '0'+byte(CrashRecovery) {
		*m = Mode(b[0] - '0')
		return nil
	}
	var s string
	if json.Unmarshal(b, &s) != nil || s == "" {
		return fmt.Errorf("faults: unknown mode %s", b)
	}
	mode, err := ParseMode(s)
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// ParseMode parses the tags produced by Mode.String plus the
// "crash-start" alias (used by the CLI -fault-mode flag and the daemon
// wire schema); the empty tag means CrashStop.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "crash-stop":
		return CrashStop, nil
	case "crash-start", "crash-before-first-step":
		return CrashBeforeFirstStep, nil
	case "crash-recovery":
		return CrashRecovery, nil
	}
	return 0, fmt.Errorf("faults: unknown mode %q (want crash-stop, crash-start, or crash-recovery)", s)
}

// Model describes the crash faults an exhaustive exploration injects. The
// zero Model disables fault injection entirely.
type Model struct {
	// MaxCrashes bounds the number of processes that may crash along any
	// single execution. 0 disables fault exploration.
	MaxCrashes int `json:"max_crashes"`
	// Mode selects where crashes may be placed.
	Mode Mode `json:"mode"`
	// MaxRecoveries bounds the total number of recover events along any
	// single execution under CrashRecovery. 0 means crashed processes never
	// come back, which makes CrashRecovery behave exactly like CrashStop.
	// A recovery does not refund the crash budget: a process that crashes,
	// recovers, and crashes again has consumed two of MaxCrashes.
	MaxRecoveries int `json:"max_recoveries,omitempty"`
}

// Enabled reports whether the model injects any faults at all.
func (m Model) Enabled() bool { return m.MaxCrashes > 0 }

// ErrBadModel is the sentinel wrapped by Model validation failures.
var ErrBadModel = errors.New("faults: invalid fault model")

// Validate rejects malformed models.
func (m Model) Validate() error {
	if m.MaxCrashes < 0 {
		return fmt.Errorf("%w: negative MaxCrashes %d", ErrBadModel, m.MaxCrashes)
	}
	if m.Mode != CrashStop && m.Mode != CrashBeforeFirstStep && m.Mode != CrashRecovery {
		return fmt.Errorf("%w: unknown mode %d", ErrBadModel, int(m.Mode))
	}
	if m.MaxRecoveries < 0 {
		return fmt.Errorf("%w: negative MaxRecoveries %d", ErrBadModel, m.MaxRecoveries)
	}
	if m.MaxRecoveries > 0 && m.Mode != CrashRecovery {
		return fmt.Errorf("%w: MaxRecoveries %d requires mode crash-recovery, not %v",
			ErrBadModel, m.MaxRecoveries, m.Mode)
	}
	return nil
}

// String renders the model for reports and logs.
func (m Model) String() string {
	if !m.Enabled() {
		return "no faults"
	}
	s := fmt.Sprintf("%v, <=%d crashes", m.Mode, m.MaxCrashes)
	if m.MaxRecoveries > 0 {
		s += fmt.Sprintf(", <=%d recoveries", m.MaxRecoveries)
	}
	return s
}

// PanicError is a panic from user-supplied code (a type spec's transition
// function or a process machine) converted into a structured error by the
// engine's recovery layer, so that one panicking spec cannot kill the
// whole process: an exploration or a walk surfaces the panic as its
// error.
type PanicError struct {
	// Engine names the recovery site ("explore").
	Engine string `json:"engine"`
	// Proc is the process whose step panicked, or -1 when unknown.
	Proc int `json:"proc"`
	// Context describes where the engine was when the panic fired (for the
	// explorer: the offending configuration's key and depth).
	Context string `json:"context,omitempty"`
	// Value is the recovered panic value.
	Value any `json:"value"`
	// Stack is the panicking goroutine's stack trace.
	Stack []byte `json:"stack,omitempty"`
}

// NewPanicError builds a PanicError from a recovered value.
func NewPanicError(engine string, proc int, context string, value any, stack []byte) *PanicError {
	return &PanicError{Engine: engine, Proc: proc, Context: context, Value: value, Stack: stack}
}

// Error implements error. The stack is included: a recovered panic without
// its stack is nearly undebuggable.
func (e *PanicError) Error() string {
	ctx := ""
	if e.Context != "" {
		ctx = " at " + e.Context
	}
	return fmt.Sprintf("faults: panic in %s engine (process %d)%s: %v\n%s",
		e.Engine, e.Proc, ctx, e.Value, e.Stack)
}
