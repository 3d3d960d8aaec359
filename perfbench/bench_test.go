package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestSequenceRepeatsForASeed(t *testing.T) {
	draw := func(seed int64) []int {
		s := newSequence(weights(false), seed)
		out := make([]int, 5*s.roundLen())
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	// Every round is the workload's whole multiset, only reordered.
	w := weights(false)
	n := newSequence(w, 7).roundLen()
	for r := 0; r < 5; r++ {
		got := make([]int, len(w))
		for _, i := range a[r*n : (r+1)*n] {
			got[i]++
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("round %d holds %v, want %v", r, got, w)
		}
	}
}

func TestTrafficRepeatsForASeed(t *testing.T) {
	a, b := genTraffic(3, 2000), genTraffic(3, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different service traffic")
	}
	if reflect.DeepEqual(a, genTraffic(4, 2000)) {
		t.Fatal("different seeds gave the same service traffic")
	}
	distinct := map[string]bool{}
	for _, s := range a {
		distinct[string(s.body)] = true
	}
	// One in five is fresh; knob-changed repeats add distinct bodies.
	if share := float64(len(distinct)) / float64(len(a)); share < 0.2 || share > 0.6 {
		t.Errorf("%.2f of the traffic is distinct requests, want 0.2 to 0.6", share)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, c := range []struct {
		p    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		xs := make([]float64, c.need)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if _, err := percentile(xs[:c.need-1], c.p); !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: err %v, want a refusal", c.p*100, c.need-1, err)
		}
		v, err := percentile(xs, c.p)
		if err != nil {
			t.Errorf("p%g of %d samples: %v", c.p*100, c.need, err)
		}
		if want := float64(c.need - minBeyond); v != want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.p*100, c.need, v, want)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 60}}
	if got := covered(parent, kids); got != 30+10+10 {
		t.Fatalf("covered = %d, want 50", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the emitted names, units, and
// directions in step with the repository's BENCHMARK.json, and checks the
// naming rule.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, want %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalog")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames())
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and expects
// correct output with every catalog metric named.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 5, seconds: 1, trace: trace, out: t.TempDir()}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v",
					name, trace, res.correct, res.attempted, res.failed, res.metrics.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, m := range res.metrics.emit(defs) {
				if !validName.MatchString(m.Name) {
					t.Errorf("emitted name %q breaks the naming rule", m.Name)
				}
			}
		}
	}
}
