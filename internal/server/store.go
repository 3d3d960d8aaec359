package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"waitfree/internal/envelope"
	"waitfree/internal/fsx"
)

// Durable job state: one internal/envelope file per job, rewritten with
// fsx.WriteAtomic on every transition and on every engine checkpoint
// autosave. A SIGKILLed daemon therefore loses at most one autosave
// interval of exploration; on the next start, loadJobs re-queues every
// non-terminal job with its stored checkpoint and the engine resumes
// instead of restarting.
const (
	jobMagic   = "waitfree job v1"
	jobKind    = "job"
	jobFileExt = ".wfjob"
)

// manifest is the persisted form of a Job.
type manifest struct {
	ID    string          `json:"id"`
	Wire  json.RawMessage `json:"wire"`
	State JobState        `json:"state"`
	Error *WireError      `json:"error,omitempty"`
	OK    *bool           `json:"ok,omitempty"`
	// Report is the canonical final report of a done job.
	Report json.RawMessage `json:"report,omitempty"`
	// Checkpoint is the latest autosaved explore.Checkpoint.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	Resumes    int             `json:"resumes,omitempty"`
	Created    time.Time       `json:"created"`
	Started    time.Time       `json:"started,omitempty"`
	Finished   time.Time       `json:"finished,omitempty"`
}

// storeFailLimit is how many consecutive persist failures flip the job
// store to degraded: admission is refused (503 storage_degraded) until a
// save lands again, instead of accepting jobs a crash could lose.
const storeFailLimit = 3

// StorageHealth is the job store's health-counter block, served by
// /v1/healthz and /v1/stats so an operator (or the smoke test) can see a
// sick disk without grepping logs.
type StorageHealth struct {
	// Retries counts transient persist faults absorbed by the unified
	// retry policy; Failures counts saves that exhausted it.
	Retries  int64 `json:"retries"`
	Failures int64 `json:"failures"`
	// SkippedJobs counts corrupt job envelopes quarantined at startup.
	SkippedJobs int64 `json:"skipped_jobs"`
	// Degraded reports storeFailLimit consecutive persist failures; the
	// daemon keeps serving reads but refuses new admissions.
	Degraded bool `json:"degraded"`
}

// store persists jobs under dir; a zero dir disables persistence (every
// method is then a no-op).
type store struct {
	dir  string
	fsys fsx.FS

	// Health counters behind StorageHealth.
	retries     atomic.Int64
	failures    atomic.Int64
	skipped     atomic.Int64
	consecFails atomic.Int64
}

func newStore(dir string, fsys fsx.FS) (*store, error) {
	s := &store{dir: dir, fsys: fsx.Or(fsys)}
	if dir == "" {
		return s, nil
	}
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create data dir: %w", err)
	}
	return s, nil
}

func (s *store) enabled() bool { return s.dir != "" }

func (s *store) path(id string) string {
	return filepath.Join(s.dir, id+jobFileExt)
}

// policy is the unified retry policy with the store's retry counter hung
// on it.
func (s *store) policy() fsx.RetryPolicy {
	return fsx.DefaultRetry.WithObserver(func(error) { s.retries.Add(1) })
}

// healthView snapshots the health counters (nil when persistence is off).
func (s *store) healthView() *StorageHealth {
	if !s.enabled() {
		return nil
	}
	return &StorageHealth{
		Retries:     s.retries.Load(),
		Failures:    s.failures.Load(),
		SkippedJobs: s.skipped.Load(),
		Degraded:    s.degraded(),
	}
}

// degraded reports the store is refusing admissions (consecutive persist
// failures at or past storeFailLimit).
func (s *store) degraded() bool {
	return s.consecFails.Load() >= storeFailLimit
}

// save rewrites the job's envelope durably (atomic replace, checksummed,
// retried under the unified policy). ctx aborts the retry backoff between
// attempts — a draining server over a failing disk must not be held
// hostage by the backoff schedule. Callers must not hold j.mu.
func (s *store) save(ctx context.Context, j *Job) error {
	if !s.enabled() {
		return nil
	}
	j.mu.Lock()
	m := manifest{
		ID:         j.id,
		Wire:       j.raw,
		State:      j.state,
		Error:      j.err,
		OK:         j.ok,
		Report:     j.report,
		Checkpoint: j.chkpoint,
		Resumes:    j.resumes,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
	}
	j.mu.Unlock()
	data, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("server: marshal job %s: %w", m.ID, err)
	}
	env := envelope.Encode(jobMagic, jobKind, []byte(m.ID), [][]byte{data})
	if err := fsx.WriteAtomic(ctx, s.fsys, s.policy(), s.path(m.ID), env); err != nil {
		s.failures.Add(1)
		s.consecFails.Add(1)
		return fmt.Errorf("server: persist job %s: %w", m.ID, err)
	}
	s.consecFails.Store(0)
	return nil
}

// remove deletes the job's envelope (a missing file is fine — the job was
// never persisted, or a quarantine already moved it).
func (s *store) remove(id string) error {
	if err := s.fsys.Remove(s.path(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// loadAll reads every job envelope under dir, oldest first, retrying
// transient read faults. Corrupt files are counted, quarantined (renamed
// to <name>.corrupt so the next start does not re-pay for them), and
// skipped with a warning through logf — a damaged job must not stop the
// healthy ones from resuming.
func (s *store) loadAll(logf func(string, ...any)) ([]*manifest, error) {
	if !s.enabled() {
		return nil, nil
	}
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("server: read data dir: %w", err)
	}
	var out []*manifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), jobFileExt) {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		// A read failure that outlives the retries quarantines the file;
		// an integrity failure falls through to the salvage check below.
		header, records, rerr := envelope.ReadFile(s.fsys, s.policy(), path, jobMagic, jobKind)
		if rerr != nil && !errors.Is(rerr, envelope.ErrCorrupt) {
			s.quarantine(path, logf, rerr)
			continue
		}
		if len(records) < 1 {
			s.quarantine(path, logf, fmt.Errorf("no intact record"))
			continue
		}
		// A torn trailer with an intact first record is still a job (the
		// envelope salvage contract); anything less was quarantined above.
		m := &manifest{}
		if jerr := json.Unmarshal(records[0], m); jerr != nil {
			s.quarantine(path, logf, jerr)
			continue
		}
		if m.ID == "" || m.ID != string(header) {
			s.quarantine(path, logf, fmt.Errorf("manifest/header id mismatch"))
			continue
		}
		out = append(out, m)
	}
	// Oldest first so re-queued jobs keep their submission order.
	slices.SortStableFunc(out, func(a, b *manifest) int { return a.Created.Compare(b.Created) })
	return out, nil
}

// quarantine sidelines an unreadable or corrupt job envelope by renaming
// it to <path>.corrupt (best-effort): the next start no longer pays to
// re-decode the failure, and the bytes survive for postmortem instead of
// being deleted.
func (s *store) quarantine(path string, logf func(string, ...any), cause error) {
	s.skipped.Add(1)
	name := filepath.Base(path)
	if err := s.fsys.Rename(path, path+".corrupt"); err != nil {
		logf("load job %s: %v (skipped; quarantine failed: %v)", name, cause, err)
		return
	}
	logf("load job %s: %v (quarantined as %s.corrupt)", name, cause, name)
}
