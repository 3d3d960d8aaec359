package rescache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"

	"waitfree/internal/envelope"
	"waitfree/internal/fsx"
)

const (
	// DefaultMemoryBudget bounds the in-memory tier when Options.
	// MemoryBudget is 0.
	DefaultMemoryBudget = 64 << 20

	// envelopeMagic and recordKind frame disk entries in the
	// internal/envelope format; fileExt names them.
	envelopeMagic = "waitfree result cache v1"
	recordKind    = "report"
	fileExt       = ".wfres"

	// diskFailLimit is how many consecutive disk-store failures demote the
	// disk tier to bypassed (DiskDegraded); while bypassed, one real store
	// per diskProbeEvery skipped ones probes whether the disk recovered.
	diskFailLimit  = 3
	diskProbeEvery = 64
)

// Options configures Open.
type Options struct {
	// Dir is the disk tier's directory, created if missing; "" keeps the
	// cache memory-only.
	Dir string
	// MemoryBudget bounds the in-memory tier in bytes (0 =
	// DefaultMemoryBudget). Entries larger than the budget skip memory
	// and live on disk only.
	MemoryBudget int64
	// FS is the filesystem the disk tier performs its I/O through (nil =
	// the real one). Tests pass an *fsx.FaultFS to script storage faults;
	// served bytes never depend on it — a failing FS only costs hits.
	FS fsx.FS
}

// Stats are the cache's cumulative counters. Hits = MemoryHits +
// DiskHits; Errors counts non-fatal disk incidents (corrupt entries
// healed by deletion, read/write failures) — none of them ever fail a
// lookup.
type Stats struct {
	Hits       int64 `json:"hits"`
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Misses     int64 `json:"misses"`
	Stores     int64 `json:"stores"`
	Evictions  int64 `json:"evictions"`
	Errors     int64 `json:"errors"`
	// Retries counts transient disk faults absorbed by the unified retry
	// policy; Heals counts bad disk entries repaired or removed so later
	// readers stop paying for them.
	Retries int64 `json:"retries,omitempty"`
	Heals   int64 `json:"heals,omitempty"`
	// DiskDegraded reports the disk tier is currently bypassed after
	// diskFailLimit consecutive store failures; the memory tier keeps
	// serving, and a periodic probe re-enables disk when it recovers.
	DiskDegraded bool `json:"disk_degraded,omitempty"`
}

// Outcome describes what the cache did for one request; waitfree.Check
// attaches it to the Report (unmarshaled, so cached JSON stays
// byte-identical to fresh JSON) and the CLIs log it.
type Outcome struct {
	// Key is the request's content address ("" when uncacheable).
	Key string
	// Hit reports the report was served from the cache.
	Hit bool
	// Stored reports a fresh report was written to the cache.
	Stored bool
	// Uncacheable reports the request had no cache key (with the reason),
	// so the cache was bypassed.
	Uncacheable bool
	Reason      string
	// StoreErr carries a non-fatal store failure, if any.
	StoreErr string
	// Stats snapshots the cache's cumulative counters after this request.
	Stats Stats
}

// String renders the outcome as the one-line form the CLIs log.
func (o *Outcome) String() string {
	switch {
	case o == nil:
		return "cache: off"
	case o.Uncacheable:
		return fmt.Sprintf("cache: bypass (%s)", o.Reason)
	case o.Hit:
		return fmt.Sprintf("cache: hit %.12s (hits=%d misses=%d stores=%d)",
			o.Key, o.Stats.Hits, o.Stats.Misses, o.Stats.Stores)
	case o.StoreErr != "":
		return fmt.Sprintf("cache: miss %.12s, store failed: %s", o.Key, o.StoreErr)
	case o.Stored:
		return fmt.Sprintf("cache: miss %.12s, stored (hits=%d misses=%d stores=%d)",
			o.Key, o.Stats.Hits, o.Stats.Misses, o.Stats.Stores)
	default:
		return fmt.Sprintf("cache: miss %.12s, not stored", o.Key)
	}
}

type entry struct {
	key  Key
	data []byte
}

// Cache is the two-tier content-addressed store. All methods are safe
// for concurrent use.
type Cache struct {
	dir    string
	budget int64
	fsys   fsx.FS

	mu          sync.Mutex
	used        int64
	lru         *list.List // *entry, front = most recent
	index       map[Key]*list.Element
	stats       Stats
	consecFails int64 // consecutive disk-store failures (bypass trigger)
	skipped     int64 // stores skipped while bypassed (probe cadence)
}

// Open creates a cache. With a Dir it ensures the directory exists and
// every entry written survives the process (durable envelope per key);
// without one the cache is memory-only.
func Open(opts Options) (*Cache, error) {
	fsys := fsx.Or(opts.FS)
	if opts.Dir != "" {
		if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("rescache: create cache dir: %w", err)
		}
	}
	budget := opts.MemoryBudget
	if budget == 0 {
		budget = DefaultMemoryBudget
	}
	return &Cache{
		dir:    opts.Dir,
		budget: budget,
		fsys:   fsys,
		lru:    list.New(),
		index:  make(map[Key]*list.Element),
	}, nil
}

// policy is the unified retry policy with the cache's Retries counter
// hung on it.
func (c *Cache) policy() fsx.RetryPolicy {
	return fsx.DefaultRetry.WithObserver(func(error) {
		c.mu.Lock()
		c.stats.Retries++
		c.mu.Unlock()
	})
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the report bytes stored under key. Memory is consulted
// first, then disk; a disk hit is promoted into memory. Disk corruption
// is healed (the broken file is deleted) and reported as a miss — Get
// never fails.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		data := el.Value.(*entry).data
		c.stats.Hits++
		c.stats.MemoryHits++
		c.mu.Unlock()
		return append([]byte(nil), data...), true
	}
	c.mu.Unlock()

	data, ok := c.readDisk(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.stats.DiskHits++
	c.insertLocked(key, data)
	return append([]byte(nil), data...), true
}

// Put stores the report bytes under key in both tiers. A disk failure is
// returned for logging but leaves the memory tier populated; the caller
// already has its report either way. After diskFailLimit consecutive
// failures the disk tier is bypassed (DiskDegraded) so a dead disk does
// not burn a retry schedule per store; a periodic probe re-enables it.
func (c *Cache) Put(key Key, data []byte) error {
	data = append([]byte(nil), data...)
	c.mu.Lock()
	c.insertLocked(key, data)
	c.stats.Stores++
	c.mu.Unlock()
	if c.dir == "" || !c.diskAttempt() {
		return nil
	}
	env := envelope.Encode(envelopeMagic, recordKind, []byte(key.Hex()), [][]byte{data})
	if err := fsx.WriteAtomic(context.Background(), c.fsys, c.policy(), c.path(key), env); err != nil {
		c.noteDiskFailure()
		return err
	}
	c.noteDiskOK()
	return nil
}

// diskAttempt reports whether this store should touch the disk: always
// while healthy, one probe per diskProbeEvery skipped stores while
// bypassed.
func (c *Cache) diskAttempt() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.consecFails < diskFailLimit {
		return true
	}
	c.skipped++
	return c.skipped%diskProbeEvery == 0
}

func (c *Cache) noteDiskFailure() {
	c.mu.Lock()
	c.stats.Errors++
	c.consecFails++
	if c.consecFails >= diskFailLimit {
		c.stats.DiskDegraded = true
	}
	c.mu.Unlock()
}

func (c *Cache) noteDiskOK() {
	c.mu.Lock()
	c.consecFails = 0
	c.skipped = 0
	c.stats.DiskDegraded = false
	c.mu.Unlock()
}

func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, key.Hex()+fileExt)
}

// readDisk loads and verifies the disk entry for key. Transient read
// faults are retried under the unified policy; the envelope's per-record
// checksums let a report survive a torn trailer: a decode error with an
// intact header and first record is still a hit. Anything less — an
// unreadable file included — is deleted so later readers stop paying for
// it and the next store heals the entry.
func (c *Cache) readDisk(key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	header, records, err := envelope.ReadFile(c.fsys, c.policy(), c.path(key), envelopeMagic, recordKind)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false
	}
	// An entry the disk cannot produce, or one without an intact header
	// and first record, would fail every future reader and grow Errors
	// forever; quarantine it by deletion — a cache entry is always safe
	// to drop, and the next store rewrites it.
	if string(header) != key.Hex() || len(records) < 1 {
		c.countError()
		c.healByRemoval(key)
		return nil, false
	}
	if err != nil {
		// Salvaged: the record itself verified even though the envelope
		// did not. Count the incident, serve the report, and rewrite the
		// healed envelope so only the first reader pays for the damage —
		// leaving the torn file in place would make every later process
		// re-decode the failure and bump Errors forever.
		c.countError()
		env := envelope.Encode(envelopeMagic, recordKind, []byte(key.Hex()), [][]byte{records[0]})
		if err := fsx.WriteAtomic(context.Background(), c.fsys, c.policy(), c.path(key), env); err != nil {
			c.countError()
		} else {
			c.countHeal()
		}
	}
	return records[0], true
}

// healByRemoval deletes the disk entry for key so it cannot poison later
// lookups; the removal is itself a heal when it lands.
func (c *Cache) healByRemoval(key Key) {
	if c.fsys.Remove(c.path(key)) == nil {
		c.countHeal()
	}
}

func (c *Cache) countHeal() {
	c.mu.Lock()
	c.stats.Heals++
	c.mu.Unlock()
}

func (c *Cache) countError() {
	c.mu.Lock()
	c.stats.Errors++
	c.mu.Unlock()
}

// insertLocked adds (or refreshes) a memory entry and evicts from the LRU
// tail until the budget holds. Oversized entries skip memory entirely.
func (c *Cache) insertLocked(key Key, data []byte) {
	if int64(len(data)) > c.budget {
		return
	}
	if el, ok := c.index[key]; ok {
		c.used += int64(len(data)) - int64(len(el.Value.(*entry).data))
		el.Value.(*entry).data = data
		c.lru.MoveToFront(el)
	} else {
		c.index[key] = c.lru.PushFront(&entry{key: key, data: data})
		c.used += int64(len(data))
	}
	for c.used > c.budget {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		ev := tail.Value.(*entry)
		c.lru.Remove(tail)
		delete(c.index, ev.key)
		c.used -= int64(len(ev.data))
		c.stats.Evictions++
	}
}
