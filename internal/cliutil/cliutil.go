// Package cliutil owns the flags and run plumbing shared by the
// verification CLIs. The shared flags come in groups, and each command
// registers only the groups its pipeline reads, so a flag the command
// would ignore is refused at parse time instead:
//
//   - Output: -timeout (run deadline), -json (the machine-readable report
//     on stdout) and -cache (the content-addressed result cache);
//   - Engine: -parallel (worker count), -progress (live engine statistics
//     on stderr), the crash fault model (-faults, -max-crashes,
//     -fault-mode, -max-recoveries), -symmetry (process-permutation
//     reduction), the soft stops (-stall-after, -max-nodes) and the memo
//     budget (-memo-budget, -memo-spill); Parallel is -parallel alone;
//   - Checkpoint: -checkpoint and -checkpoint-every (resumable run state on
//     disk).
//
// Run is the run sequence the commands share around waitfree.Check.
package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"time"

	"waitfree"
	"waitfree/internal/durable"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/rescache"
)

// Group selects shared flags for Register; combine groups with |.
type Group uint8

const (
	// Output is -timeout, -json and -cache.
	Output Group = 1 << iota
	// Parallel is -parallel alone, for a pipeline that reads no other
	// engine flag.
	Parallel
	// engineRest is every Engine flag but -parallel.
	engineRest
	// Checkpoint is -checkpoint and -checkpoint-every.
	Checkpoint
	// Engine is -parallel, -progress, -faults, -max-crashes, -fault-mode,
	// -max-recoveries, -symmetry, -stall-after, -max-nodes, -memo-budget
	// and -memo-spill.
	Engine = Parallel | engineRest
)

// Flags are the switches shared by the verification CLIs.
type Flags struct {
	// Parallel is the worker count for independent subtasks (0 =
	// GOMAXPROCS).
	Parallel int
	// Timeout aborts the run after this long (0 = none); expiry surfaces
	// as context.DeadlineExceeded.
	Timeout time.Duration
	// Progress, when positive, prints an engine Stats line to stderr at
	// this interval.
	Progress time.Duration
	// JSON switches stdout from the human rendering to the JSON report.
	JSON bool
	// Faults enables exhaustive crash exploration with the model below.
	Faults bool
	// MaxCrashes bounds the crashes per execution when -faults is set.
	MaxCrashes int
	// FaultMode is the crash semantics; -fault-mode is validated at flag
	// parse time, so this is always a legal value afterwards.
	FaultMode faults.Mode
	// MaxRecoveries bounds recover edges per execution under
	// -fault-mode crash-recovery (0 elsewhere; validated by the model).
	MaxRecoveries int
	// Symmetry selects process-permutation symmetry reduction for the
	// consensus engines; the default SymmetryAuto reduces exactly when the
	// implementation qualifies, so reports never change, only work.
	Symmetry explore.SymmetryMode
	// Checkpoint is the path of the resumable-run file: loaded (if
	// present) before a run, written when a run is cancelled mid-flight or
	// ends partial, and — with CheckpointEvery — autosaved while it runs.
	Checkpoint string
	// CheckpointEvery autosaves Checkpoint at this interval during the
	// run (0 = only on cancellation); requires Checkpoint.
	CheckpointEvery time.Duration
	// StallAfter arms the stall watchdog: a worker making no progress for
	// this long stops the run with a partial report (0 = off).
	StallAfter time.Duration
	// MaxNodes is the soft node budget: the run degrades to a
	// partial-coverage report after entering this many configurations
	// (0 = unbounded).
	MaxNodes int64
	// CacheDir is the content-addressed result cache directory: requests
	// whose canonical key is already stored are served from it with
	// byte-identical JSON instead of re-explored, and fresh conclusive
	// reports are stored into it ("" = no cache).
	CacheDir string
	// MemoBudget caps resident memo entries per execution tree (0 =
	// unbounded). Without -memo-spill, exceeding it loses memo hits and
	// flags the report Degraded.
	MemoBudget int
	// MemoSpillDir spills evicted memo entries to checksummed per-tree
	// files in this directory, so -memo-budget trades memory for disk
	// without losing hits or degrading ("" = no spill; requires
	// -memo-budget).
	MemoSpillDir string
}

// Register installs the shared flags of groups on fs and returns the
// destination. Fields of groups left out keep their defaults.
func Register(fs *flag.FlagSet, groups Group) *Flags {
	f := &Flags{MaxCrashes: 1, Symmetry: explore.SymmetryAuto}
	if groups&Output != 0 {
		fs.DurationVar(&f.Timeout, "timeout", 0, "abort the run after this duration (e.g. 30s; 0 = no timeout)")
		fs.BoolVar(&f.JSON, "json", false, "emit the machine-readable JSON report on stdout")
		fs.StringVar(&f.CacheDir, "cache", "", "result cache DIR: serve repeat requests from the content-addressed cache and store fresh verdicts into it")
	}
	if groups&Parallel != 0 {
		fs.IntVar(&f.Parallel, "parallel", 0, "worker count for independent subtasks (0 = GOMAXPROCS)")
	}
	if groups&engineRest != 0 {
		fs.DurationVar(&f.Progress, "progress", 0, "print engine progress to stderr at this interval (e.g. 500ms; 0 = off)")
		fs.BoolVar(&f.Faults, "faults", false, "explore crash faults exhaustively (crash-stop model)")
		fs.IntVar(&f.MaxCrashes, "max-crashes", 1, "crash budget per execution when -faults is set")
		fs.Func("fault-mode", `crash semantics: "crash-stop" (anytime), "crash-start" (before the first step), or "crash-recovery" (crashed processes may restart; see -max-recoveries)`,
			func(s string) error {
				mode, err := faults.ParseMode(s)
				if err != nil {
					return err
				}
				f.FaultMode = mode
				return nil
			})
		fs.IntVar(&f.MaxRecoveries, "max-recoveries", 0, `recovery budget per execution with -fault-mode crash-recovery`)
		fs.Func("symmetry", `symmetry reduction: "off", "auto" (reduce when the protocol qualifies; default), or "require"`,
			func(s string) error {
				mode, err := explore.ParseSymmetryMode(s)
				if err != nil {
					return err
				}
				f.Symmetry = mode
				return nil
			})
		fs.DurationVar(&f.StallAfter, "stall-after", 0, "stop with a partial report when a worker makes no progress for this long (e.g. 1m; 0 = off)")
		fs.Int64Var(&f.MaxNodes, "max-nodes", 0, "soft node budget: degrade to a partial-coverage report after this many configurations (0 = unbounded)")
		fs.IntVar(&f.MemoBudget, "memo-budget", 0, "cap resident memo entries per execution tree (0 = unbounded; without -memo-spill the report degrades)")
		fs.StringVar(&f.MemoSpillDir, "memo-spill", "", "spill evicted memo entries to DIR so -memo-budget trades memory for disk without degrading")
	}
	if groups&Checkpoint != 0 {
		fs.StringVar(&f.Checkpoint, "checkpoint", "", "resumable-run file: loaded if present, written on cancellation or partial coverage")
		fs.DurationVar(&f.CheckpointEvery, "checkpoint-every", 0, "autosave the -checkpoint file at this interval while the run is in flight (e.g. 30s; 0 = off)")
	}
	return f
}

// OpenCache opens the -cache result cache (a nil cache without the flag,
// which every consumer treats as no cache).
func (f *Flags) OpenCache() (*rescache.Cache, error) {
	if f.CacheDir == "" {
		return nil, nil
	}
	c, err := rescache.Open(rescache.Options{Dir: f.CacheDir})
	if err != nil {
		return nil, fmt.Errorf("open cache: %w", err)
	}
	return c, nil
}

// Context returns the run context honoring -timeout and Ctrl-C: an
// interrupt cancels the context — letting a -checkpoint run save its
// resumable state on the way out — instead of killing the process. The
// caller must call cancel.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if f.Timeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, f.Timeout)
		return tctx, func() { tcancel(); stop() }
	}
	return ctx, stop
}

// Options folds the flags into opts: parallelism and the symmetry mode
// always, the fault model when -faults is set, the OnProgress stderr hook
// when -progress is set, and autosave when -checkpoint-every is set: the
// engine then durably rewrites the -checkpoint file at that interval while
// the run is in flight, so a killed process loses at most one interval of
// work. It errors when -checkpoint-every has no -checkpoint file to write.
func (f *Flags) Options(opts explore.Options) (explore.Options, error) {
	opts.Parallelism = f.Parallel
	opts.Symmetry = f.Symmetry
	if f.Faults {
		opts.Faults = faults.Model{MaxCrashes: f.MaxCrashes, Mode: f.FaultMode, MaxRecoveries: f.MaxRecoveries}
	}
	if f.Progress > 0 {
		opts.ProgressInterval = f.Progress
		opts.OnProgress = func(s explore.Stats) { fmt.Fprintln(os.Stderr, s.String()) }
	}
	opts.MaxNodes = f.MaxNodes
	opts.StallAfter = f.StallAfter
	opts.MemoBudget = f.MemoBudget
	opts.MemoSpillDir = f.MemoSpillDir
	if f.CheckpointEvery <= 0 {
		return opts, nil
	}
	if f.Checkpoint == "" {
		return opts, errors.New("-checkpoint-every requires -checkpoint FILE")
	}
	opts.CheckpointEvery = f.CheckpointEvery
	path := f.Checkpoint
	opts.OnCheckpoint = func(cp *explore.Checkpoint) {
		// Autosave failures must not kill a healthy run: durable.SaveFS has
		// already retried transient errors, so just warn and keep going —
		// the previous checkpoint file is still intact (atomic rename).
		if err := durable.SaveFS(nil, path, cp); err != nil {
			fmt.Fprintf(os.Stderr, "autosave: %v\n", err)
		}
	}
	return opts, nil
}

// LoadCheckpoint reads the -checkpoint file through the durable layer. No
// flag or no file yet is a fresh start, reported as (nil, nil); an
// unreadable, empty, truncated, or checksum-corrupt file is an error
// (silently restarting a long run from scratch would be worse). A corrupt
// file's error wraps durable.ErrCorruptCheckpoint and — via errors.As on
// *durable.CorruptError — may carry the longest valid tree prefix, so a
// command can offer it as a salvage resume (cmd/explore does).
func (f *Flags) LoadCheckpoint() (*explore.Checkpoint, error) {
	if f.Checkpoint == "" {
		return nil, nil
	}
	cp, err := durable.LoadFS(nil, f.Checkpoint)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	return cp, nil
}

// SaveCheckpoint durably writes cp to the -checkpoint file (atomic
// replace, checksummed, retried); a no-op without the flag or without a
// checkpoint to save.
func (f *Flags) SaveCheckpoint(cp *explore.Checkpoint) error {
	if f.Checkpoint == "" || cp == nil {
		return nil
	}
	if err := durable.SaveFS(nil, f.Checkpoint, cp); err != nil {
		return fmt.Errorf("save checkpoint: %w", err)
	}
	return nil
}

// Run is the run sequence the verification commands share: open the
// -cache, run waitfree.Check under the -timeout/Ctrl-C context, and log
// the cache outcome to stderr. A report that comes back without error is
// written to stdout as JSON under -json and handed to human otherwise. On
// error the report, if any, is returned too: it may carry a resumable
// checkpoint.
func (f *Flags) Run(req waitfree.Request, human func(*waitfree.Report) error) (*waitfree.Report, error) {
	cache, err := f.OpenCache()
	if err != nil {
		return nil, err
	}
	req.Cache = cache
	ctx, cancel := f.Context()
	defer cancel()
	rep, err := waitfree.Check(ctx, req)
	if rep != nil && rep.Cache != nil {
		fmt.Fprintln(os.Stderr, rep.Cache.String())
	}
	if err != nil {
		return rep, err
	}
	if f.JSON {
		return rep, WriteJSON(os.Stdout, rep)
	}
	return rep, human(rep)
}

// WriteJSON marshals v onto w, indented, as the -json output format.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
