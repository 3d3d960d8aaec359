// Command benchreg is the CI allocation-regression gate. It runs the
// BenchmarkConsensus* and BenchmarkValency suites with -benchmem, compares allocs/op per
// benchmark against a committed baseline JSON, fails (exit 1) when any
// benchmark regresses by more than the threshold, and writes the fresh
// numbers to -out so every CI run leaves a BENCH_*.json trajectory point.
//
// Allocations per op are deterministic counts, so they gate reliably on
// shared CI runners; ns/op is recorded for the trajectory but never gated
// (wall-clock on shared hardware is noise). The output also records the
// non-test Go lines of every package in the module, so deletions show in
// the trajectory next to the costs; those are never gated either.
//
//	go run ./scripts/benchreg -baseline BENCH_BASELINE.json -out BENCH_<n>.json
//	go run ./scripts/benchreg -out next        # the point after the highest committed BENCH_<n>.json
//	go run ./scripts/benchreg -ratchet         # gate, then tighten the baseline
//	go run ./scripts/benchreg -update          # refresh the baseline in place
//
// -ratchet keeps the gate binding as the code gets cheaper: after a
// passing gate it lowers each baseline entry's allocs/op to the fresh
// value when that beats it by more than ratchetMargin, and never raises
// one, so a later regression is measured from the best value reached
// rather than from a stale one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Point is one benchmark's measurement.
type Point struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Nodes is the explored-nodes custom metric, when the benchmark
	// reports one; it turns the other columns into per-node costs.
	Nodes float64 `json:"explored_nodes,omitempty"`
}

// File is the schema shared by the baseline and the emitted trajectory
// point.
type File struct {
	Note       string           `json:"note,omitempty"`
	GoOS       string           `json:"goos"`
	GoArch     string           `json:"goarch"`
	Benchmarks map[string]Point `json:"benchmarks"`
	// LOC maps each package's import path to its non-test Go lines.
	LOC map[string]int `json:"loc,omitempty"`
}

// ratchetMargin is the share by which a fresh allocs/op reading must beat
// its baseline entry before -ratchet lowers the entry. Some rows vary by
// an alloc or two between runs of the same code (1162 -> 1160 on a row
// of about 1,160), and lowering to each such draw would drift the
// baseline toward every row's lowest reading; a real saving is larger.
const ratchetMargin = 0.01

// benchLine matches one `go test -bench` result line; value/unit pairs
// after the iteration count are parsed separately.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline to gate against")
	outPath := flag.String("out", "", "write the fresh measurements to this file (BENCH_<n>.json; next: the point after the highest committed one)")
	bench := flag.String("bench", "BenchmarkConsensus|BenchmarkValency", "benchmark pattern to run")
	benchtime := flag.String("benchtime", "5x", "-benchtime passed to go test")
	threshold := flag.Float64("threshold", 0.10, "maximum tolerated allocs/op regression (fraction)")
	update := flag.Bool("update", false, "rewrite -baseline with the fresh measurements instead of gating")
	ratchet := flag.Bool("ratchet", false, "after a passing gate, lower -baseline allocs/op entries the fresh run beat by more than 1% (never raise one)")
	flag.Parse()

	fresh, err := run(*bench, *benchtime)
	if err != nil {
		fatal(err)
	}
	if len(fresh) == 0 {
		fatal(fmt.Errorf("no benchmarks matched %q", *bench))
	}
	out := &File{
		Note:       "allocs/op gated by scripts/benchreg; ns/op and loc recorded for the trajectory only",
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Benchmarks: fresh,
	}
	if *outPath == "next" {
		committed, err := exec.Command("git", "ls-files", "--", "BENCH_*.json").Output()
		if err != nil {
			fatal(fmt.Errorf("git ls-files: %w", err))
		}
		*outPath = nextPoint(strings.Fields(string(committed)))
	}
	if *outPath != "" {
		loc, err := linesPerPackage()
		if err != nil {
			fatal(err)
		}
		out.LOC = loc
		if err := writeJSON(*outPath, out); err != nil {
			fatal(err)
		}
		fmt.Printf("benchreg: wrote %s\n", *outPath)
	}
	if *update {
		if err := writeJSON(*baselinePath, out); err != nil {
			fatal(err)
		}
		fmt.Printf("benchreg: baseline %s updated (%d benchmarks)\n", *baselinePath, len(fresh))
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("read baseline (run with -update to create it): %w", err))
	}
	var base File
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parse baseline %s: %w", *baselinePath, err))
	}

	regressed := false
	for name, b := range base.Benchmarks {
		f, ok := fresh[name]
		if !ok {
			fmt.Printf("benchreg: MISSING %s (baseline has it, run did not)\n", name)
			regressed = true
			continue
		}
		limit := float64(b.AllocsPerOp) * (1 + *threshold)
		switch {
		case float64(f.AllocsPerOp) > limit:
			fmt.Printf("benchreg: REGRESSION %s: %d allocs/op, baseline %d (limit %.0f)\n",
				name, f.AllocsPerOp, b.AllocsPerOp, limit)
			regressed = true
		default:
			fmt.Printf("benchreg: ok %s: %d allocs/op (baseline %d)\n", name, f.AllocsPerOp, b.AllocsPerOp)
		}
	}
	if regressed {
		fmt.Println("benchreg: FAIL — allocs/op regressed beyond the threshold")
		os.Exit(1)
	}
	fmt.Printf("benchreg: PASS (%d benchmarks within %.0f%%)\n", len(base.Benchmarks), *threshold*100)
	if !*ratchet {
		return
	}
	tightened := ratchetBaseline(&base, fresh)
	for _, line := range tightened {
		fmt.Printf("benchreg: TIGHTENED %s\n", line)
	}
	if len(tightened) == 0 {
		fmt.Println("benchreg: ratchet: no baseline entry beaten")
		return
	}
	if err := writeJSON(*baselinePath, &base); err != nil {
		fatal(err)
	}
	fmt.Printf("benchreg: baseline %s tightened (%d entries)\n", *baselinePath, len(tightened))
}

// benchPoint matches a trajectory point's file name.
var benchPoint = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextPoint names the trajectory point after the highest-numbered
// BENCH_<n>.json among names: BENCH_<n+1>.json, or BENCH_1.json if there
// is none. Other names, such as BENCH_BASELINE.json, are ignored.
func nextPoint(names []string) string {
	n := 0
	for _, name := range names {
		if m := benchPoint.FindStringSubmatch(name); m != nil {
			if v, err := strconv.Atoi(m[1]); err == nil {
				n = max(n, v)
			}
		}
	}
	return fmt.Sprintf("BENCH_%d.json", n+1)
}

// ratchetBaseline lowers base's allocs/op entries to fresh's where fresh
// is lower by more than ratchetMargin, leaving every other field and
// every other entry alone (a baseline entry is never raised, and a fresh
// row the baseline lacks is not added). It returns one "name: old -> new"
// line per tightened entry, in name order.
func ratchetBaseline(base *File, fresh map[string]Point) []string {
	var names []string
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var tightened []string
	for _, name := range names {
		b := base.Benchmarks[name]
		f, ok := fresh[name]
		if !ok || float64(f.AllocsPerOp) >= float64(b.AllocsPerOp)*(1-ratchetMargin) {
			continue
		}
		tightened = append(tightened, fmt.Sprintf("%s: %d -> %d allocs/op", name, b.AllocsPerOp, f.AllocsPerOp))
		b.AllocsPerOp = f.AllocsPerOp
		base.Benchmarks[name] = b
	}
	return tightened
}

// run executes the benchmark suite and parses its output.
func run(bench, benchtime string) (map[string]Point, error) {
	cmd := exec.Command("go", "test", "-run", "XXX",
		"-bench", bench, "-benchmem", "-benchtime", benchtime, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, out)
	}
	points := make(map[string]Point)
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		// Strip the -GOMAXPROCS suffix so names are machine-independent.
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		p, ok := parseMetrics(m[3])
		if !ok {
			continue
		}
		points[name] = p
	}
	return points, nil
}

// parseMetrics walks the "value unit value unit ..." tail of a result
// line. Only lines with a full -benchmem triple are recorded.
func parseMetrics(tail string) (Point, bool) {
	fields := strings.Fields(tail)
	var p Point
	var haveNs, haveBytes, haveAllocs bool
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return p, false
		}
		switch fields[i+1] {
		case "ns/op":
			p.NsPerOp, haveNs = v, true
		case "B/op":
			p.BytesPerOp, haveBytes = int64(v), true
		case "allocs/op":
			p.AllocsPerOp, haveAllocs = int64(v), true
		case "explored-nodes":
			p.Nodes = v
		}
	}
	return p, haveNs && haveBytes && haveAllocs
}

// linesPerPackage counts the lines (as wc -l does) of every package's
// non-test Go files, keyed by import path.
func linesPerPackage() (map[string]int, error) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	loc := make(map[string]int)
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var pkg struct {
			ImportPath, Dir string
			GoFiles         []string
		}
		if err := dec.Decode(&pkg); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		for _, f := range pkg.GoFiles {
			data, err := os.ReadFile(filepath.Join(pkg.Dir, f))
			if err != nil {
				return nil, err
			}
			loc[pkg.ImportPath] += bytes.Count(data, []byte("\n"))
		}
	}
	return loc, nil
}

func writeJSON(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreg:", err)
	os.Exit(1)
}
