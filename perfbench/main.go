// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed against the checker's own modules, in process,
// checks every output for correctness, and prints the workload's
// end-to-end metrics (or, with -trace 1, its per-layer metrics) as one
// JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload verify-batch --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics, and
// what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one catalog entry: the metrics BENCHMARK.json lists, in
// emission order.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the checker sees, emitted on every
// untraced run. Each workload fills them from its own operation:
// verify-* from in-process Check calls, service-mixed from jobs timed
// due-to-done (README.md maps them to the per-workload names).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, emitted on every traced run. A
// metric whose layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"server.admit_ms_p50", "ms", "lower"},
	{"server.admit_ms_p99", "ms", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.queue_wait_ms_p99", "ms", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"server.run_ms_p99", "ms", "lower"},
	{"server.run_ms_p50.consensus", "ms", "lower"},
	{"server.run_ms_p50.bound", "ms", "lower"},
	{"server.run_ms_p50.elimination", "ms", "lower"},
	{"server.run_ms_p50.classification", "ms", "lower"},
	{"server.run_ms_p50.synthesis", "ms", "lower"},
	{"server.deliver_ms_p50", "ms", "lower"},
	{"server.decode_us_p50", "us", "lower"},
	{"server.refused", "count", "lower"},
	{"server.refused.queue_full", "count", "lower"},
	{"server.refused.storage_degraded", "count", "lower"},
	{"server.refused.draining", "count", "lower"},
	{"server.pool_busy_frac", "ratio", "lower"},
	{"rescache.key_us_p50", "us", "lower"},
	{"rescache.key_us_p99", "us", "lower"},
	{"explore.canon_us_p50", "us", "lower"},
	{"rescache.get_mem_us_p50", "us", "lower"},
	{"rescache.get_disk_us_p50", "us", "lower"},
	{"rescache.put_us_p50", "us", "lower"},
	{"waitfree.decode_report_us_p50", "us", "lower"},
	{"waitfree.decode_report_errors", "count", "lower"},
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.disk_hit_share", "ratio", "lower"},
	{"rescache.evictions", "count", "lower"},
	{"rescache.errors", "count", "lower"},
	{"explore.nodes_per_s", "1/s", "higher"},
	{"explore.nodes", "count", "lower"},
	{"explore.memo_hit_ratio", "ratio", "higher"},
	{"explore.allocs_per_node", "count", "lower"},
	{"explore.bytes_per_node", "B", "lower"},
	{"explore.gc_pause_ms", "ms", "lower"},
	{"explore.peak_heap_mb", "MB", "lower"},
	{"explore.worker_skew", "ratio", "lower"},
	{"explore.orbits", "count", "lower"},
	{"explore.trees_walked", "count", "lower"},
	{"explore.trees_replayed", "count", "higher"},
	{"explore.evictions", "count", "lower"},
	{"explore.spilled", "count", "lower"},
	{"explore.storage_retries", "count", "lower"},
	{"explore.spill_rebuilds", "count", "lower"},
	{"durable.save_ms_p50", "ms", "lower"},
	{"durable.save_ms_p99", "ms", "lower"},
	{"durable.save_bytes_p50", "B", "lower"},
	{"durable.load_ms_p50", "ms", "lower"},
	{"fsx.jobstore.syncs_per_job", "ratio", "lower"},
	{"fsx.jobstore.writes_per_job", "ratio", "lower"},
	{"fsx.jobstore.renames_per_job", "ratio", "lower"},
	{"fsx.rescache.syncs_per_store", "ratio", "lower"},
	{"fsx.rescache.reads_per_get", "ratio", "lower"},
	{"fsx.spill.writes_per_eviction", "ratio", "lower"},
	{"fsx.spill.reads_per_eviction", "ratio", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"loadgen.latency_ms_p90", "ms", "lower"},
	{"loadgen.job_ms_p99", "ms", "lower"},
	{"loadgen.backlog_end", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"self_ms.loadgen", "ms", "lower"},
	{"self_ms.server", "ms", "lower"},
	{"self_ms.waitfree", "ms", "lower"},
	{"self_ms.rescache", "ms", "lower"},
	{"self_ms.explore", "ms", "lower"},
	{"self_ms.durable", "ms", "lower"},
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // scratch directory for temp dirs and span files
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   *metricSet
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"verify-batch":  func(o options) (*result, error) { return runVerify(o, false) },
	"verify-spill":  func(o options) (*result, error) { return runVerify(o, true) },
	"service-mixed": runService,
}

// defaultSeed is the seed a run uses when -seed is not given.
const defaultSeed = 1

func main() {
	var o options
	var trace int
	var digests string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for temp files and span dumps")
	flag.StringVar(&digests, "write-digests", "", "recompute the verify pool's expected report digests into this file and exit")
	flag.Parse()
	o.trace = trace == 1
	if digests != "" {
		if err := writeDigests(digests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -trace 0|1, -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes the human-readable figures and notes, then the
// result object as the last line.
func printResult(w *os.File, o options, res *result) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	list := res.metrics.emit(defs)
	for _, n := range res.metrics.notes {
		fmt.Fprintln(w, "# "+n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		if !validName.MatchString(m.Name) {
			return fmt.Errorf("metric name %q breaks the naming rule", m.Name)
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// spanFile names the span dump of a traced run.
func spanFile(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}

// timedSetups runs setup n times and returns the last environment and
// every setup's time in seconds. Each environment goes to check (which
// validates its warm-up) before the next setup tears it down.
func timedSetups[E any](n int, setup func() (E, error), check func(E), teardown func(E)) (E, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(env)
		}
		// Start each setup from a collected heap, so a setup does not pay
		// for the previous one's garbage.
		runtime.GC()
		start := time.Now()
		e, err := setup()
		if err != nil {
			var zero E
			return zero, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		check(e)
		env = e
	}
	return env, secs, nil
}

// setSetup sets setup_s to the median of secs and notes every value.
func setSetup(m *metricSet, secs []float64) {
	m.set("setup_s", median(secs))
	m.note("setup_s: median of %d set-ups %.4f", len(secs), secs)
}

// setupRuns is how many times a run sets up before it measures; setup_s
// is the median of all of a run's set-ups.
const setupRuns = 5
