package faults

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestModeRoundTrips(t *testing.T) {
	for _, mode := range []Mode{CrashStop, CrashBeforeFirstStep, CrashRecovery} {
		blob, err := json.Marshal(mode)
		if err != nil {
			t.Fatal(err)
		}
		var back Mode
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if back != mode {
			t.Errorf("JSON round-trip %v -> %s -> %v", mode, blob, back)
		}
		parsed, err := ParseMode(mode.String())
		if err != nil || parsed != mode {
			t.Errorf("ParseMode(%q) = %v, %v", mode.String(), parsed, err)
		}
	}
	// Bare integers are accepted for hand-written checkpoint files.
	var m Mode
	for _, mode := range []Mode{CrashStop, CrashBeforeFirstStep, CrashRecovery} {
		if err := json.Unmarshal([]byte(strconv.Itoa(int(mode))), &m); err != nil || m != mode {
			t.Errorf("integer mode %d: %v, %v", int(mode), m, err)
		}
	}
	// JSON has no empty-tag form, and no integer beyond the modes.
	for _, bad := range []string{`"crash-restart"`, `""`, "3", "-1", "1.0", "null"} {
		if err := json.Unmarshal([]byte(bad), &m); err == nil {
			t.Errorf("mode %s accepted", bad)
		}
	}
}

func TestParseModeAliases(t *testing.T) {
	cases := map[string]Mode{
		"":                        CrashStop,
		"crash-stop":              CrashStop,
		"crash-start":             CrashBeforeFirstStep,
		"crash-before-first-step": CrashBeforeFirstStep,
		"crash-recovery":          CrashRecovery,
	}
	for s, want := range cases {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
		// ParseMode and UnmarshalJSON accept the same vocabulary: every
		// spelling (canonical or alias) must round-trip through both, so a
		// tag written into a flag also works in a checkpoint or wire file.
		if s == "" {
			continue // JSON has no empty-tag form
		}
		var m Mode
		if err := json.Unmarshal([]byte(`"`+s+`"`), &m); err != nil || m != want {
			t.Errorf("json %q = %v, %v; want %v", s, m, err, want)
		}
	}
	if _, err := ParseMode("byzantine"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

func TestModelValidate(t *testing.T) {
	if err := (Model{}).Validate(); err != nil {
		t.Errorf("zero model invalid: %v", err)
	}
	if (Model{}).Enabled() {
		t.Error("zero model enabled")
	}
	if !(Model{MaxCrashes: 2}).Enabled() {
		t.Error("nonzero model disabled")
	}
	if err := (Model{MaxCrashes: -1}).Validate(); !errors.Is(err, ErrBadModel) {
		t.Errorf("negative MaxCrashes: %v", err)
	}
	if err := (Model{Mode: Mode(9)}).Validate(); !errors.Is(err, ErrBadModel) {
		t.Errorf("unknown mode: %v", err)
	}
	if s := (Model{MaxCrashes: 1}).String(); !strings.Contains(s, "crash-stop") || !strings.Contains(s, "1") {
		t.Errorf("model renders as %q", s)
	}
	if s := (Model{}).String(); s != "no faults" {
		t.Errorf("zero model renders as %q", s)
	}
}

func TestModelValidateRecoveries(t *testing.T) {
	ok := Model{MaxCrashes: 1, Mode: CrashRecovery, MaxRecoveries: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("crash-recovery model invalid: %v", err)
	}
	// MaxRecoveries=0 under crash-recovery is legal (and is exactly
	// crash-stop exploration).
	if err := (Model{MaxCrashes: 1, Mode: CrashRecovery}).Validate(); err != nil {
		t.Errorf("zero-recovery crash-recovery model invalid: %v", err)
	}
	if err := (Model{MaxCrashes: 1, MaxRecoveries: -1, Mode: CrashRecovery}).Validate(); !errors.Is(err, ErrBadModel) {
		t.Errorf("negative MaxRecoveries: %v", err)
	}
	// A recovery budget outside crash-recovery mode is a contradiction,
	// not a silent no-op.
	for _, mode := range []Mode{CrashStop, CrashBeforeFirstStep} {
		if err := (Model{MaxCrashes: 1, Mode: mode, MaxRecoveries: 1}).Validate(); !errors.Is(err, ErrBadModel) {
			t.Errorf("mode %v with MaxRecoveries: %v", mode, err)
		}
	}
	if s := ok.String(); !strings.Contains(s, "crash-recovery") || !strings.Contains(s, "2 recoveries") {
		t.Errorf("model renders as %q", s)
	}
	// The model survives its JSON round-trip, and MaxRecoveries=0 adds no
	// field (old checkpoint files parse, new zero-budget files look old).
	blob, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil || back != ok {
		t.Errorf("JSON round-trip %+v -> %s -> %+v (%v)", ok, blob, back, err)
	}
	blob, err = json.Marshal(Model{MaxCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "max_recoveries") {
		t.Errorf("zero MaxRecoveries serialized: %s", blob)
	}
}

func TestPanicErrorMessage(t *testing.T) {
	pe := NewPanicError("explore", 2, "depth 7, config key ab12", "boom", []byte("goroutine 1 [running]:\nmain.main()"))
	msg := pe.Error()
	for _, want := range []string{"explore", "process 2", "depth 7", "boom", "goroutine 1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q lacks %q", msg, want)
		}
	}
	var asErr *PanicError
	if !errors.As(error(pe), &asErr) {
		t.Error("PanicError does not satisfy errors.As on itself")
	}
}
