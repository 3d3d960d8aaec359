package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer, and the figure is set by a handful of
// outliers.
const minBeyond = 10

// errTooFewSamples is returned by percentile when the sample cannot
// support the requested percentile.
var errTooFewSamples = errors.New("too few samples beyond the percentile")

// samplesFor returns the smallest sample count percentile accepts for p.
func samplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-rank(n, p) >= minBeyond {
			return n
		}
	}
}

// rank is the 1-based nearest-rank position of percentile p in n sorted
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses a percentile with fewer than minBeyond samples above its rank.
// Failed operations enter xs as +Inf, so they count as missing every
// latency figure. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	r := rank(n, p)
	if n-r < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d)", p*100, n, errTooFewSamples, samplesFor(p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[r-1], nil
}

// metric is one named figure with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// validName is the name rule every emitted metric obeys.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricSet collects a run's figures by name. A value it cannot produce
// (a refused percentile, a ratio over zero, a metric the workload has no
// layer for) is recorded as a note and emitted as 0, so the output always
// names every catalog metric.
type metricSet struct {
	vals  map[string]float64
	notes []string
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]float64)} }

func (m *metricSet) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m.note("%s: not measurable (%v), reported as 0", name, v)
		v = 0
	}
	m.vals[name] = v
}

// setPct sets name to the p-quantile of xs times scale, noting the
// sample count. An infinite quantile (one landing on a failed operation)
// becomes failCapMS so the output stays valid JSON while still reading as
// a limit missed.
func (m *metricSet) setPct(name string, xs []float64, p, scale float64) {
	v, err := percentile(xs, p)
	switch {
	case err != nil:
		m.note("%s: %v, reported as 0", name, err)
		m.vals[name] = 0
	case math.IsInf(v, 1):
		m.note("%s: n=%d, lands on a failed operation, reported as %d", name, len(xs), failCapMS)
		m.vals[name] = failCapMS
	default:
		m.note("%s: n=%d", name, len(xs))
		m.vals[name] = v * scale
	}
}

// emit returns defs' metrics in catalog order. A catalog metric the run
// did not set is emitted as 0 with a note.
func (m *metricSet) emit(defs []metricDef) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok {
			m.note("%s: not measured by this workload, reported as 0", d.Name)
		}
		out = append(out, metric{Name: d.Name, Value: v, Unit: d.Unit})
	}
	return out
}

// failCapMS stands in for the latency of a failed operation when a
// percentile lands on one: the benchmark's whole time limit.
const failCapMS = 180000

// ratio returns a/b, or NaN when b is zero (set turns that into a note).
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// rssSampler reads the process's resident set every millisecond and keeps
// its peak since the last reset, so a closed loop can take each check's
// peak on its own. The methods of a nil sampler do nothing.
type rssSampler struct {
	f    *os.File // /proc/self/statm, reread from offset 0
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak int64 // pages
	err  error
}

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, stop: make(chan struct{}), done: make(chan struct{})}
	if s.sample(); s.err != nil {
		f.Close()
		return nil, s.err
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

// sample reads the resident set (the second field of statm, in pages)
// and raises the peak.
func (s *rssSampler) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if err != nil && err != io.EOF {
		s.err = err
		return
	}
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		s.err = fmt.Errorf("/proc/self/statm: %q", buf[:n])
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		s.err = fmt.Errorf("/proc/self/statm: %w", err)
		return
	}
	s.peak = max(s.peak, pages)
}

// reset starts a new peak at the current resident set.
func (s *rssSampler) reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.peak = 0
	s.mu.Unlock()
	s.sample()
}

// peakMB samples once more and returns the peak since the last reset in
// MiB.
func (s *rssSampler) peakMB() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak*int64(os.Getpagesize())) / (1 << 20)
}

// close stops the sampler and returns the first read error.
func (s *rssSampler) close() error {
	if s == nil {
		return nil
	}
	close(s.stop)
	<-s.done
	s.f.Close()
	return s.err
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
