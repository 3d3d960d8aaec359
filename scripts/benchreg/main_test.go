package main

import (
	"reflect"
	"testing"
)

// TestRatchetBaseline pins -ratchet on a synthetic baseline: an entry the
// fresh run beat by more than ratchetMargin is lowered to the fresh
// allocs/op with its other fields kept, an equal or worse entry is never
// raised, an entry the run did not measure is kept, and a fresh row the
// baseline lacks is not added. The noise rows are draws seen on one
// unchanged tree (1162 -> 1160, 2247 -> 2246, 1461 -> 1460): each is
// within the margin and stays put, while a 5% drop still tightens.
func TestRatchetBaseline(t *testing.T) {
	base := &File{Benchmarks: map[string]Point{
		"BenchmarkA":      {NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 50, Nodes: 7},
		"BenchmarkB":      {NsPerOp: 200, BytesPerOp: 32, AllocsPerOp: 10},
		"BenchmarkC":      {NsPerOp: 300, BytesPerOp: 16, AllocsPerOp: 30},
		"BenchmarkD":      {AllocsPerOp: 5},
		"BenchmarkNoise1": {AllocsPerOp: 1162},
		"BenchmarkNoise2": {AllocsPerOp: 2247},
		"BenchmarkNoise3": {AllocsPerOp: 1461},
		"BenchmarkDrop5":  {AllocsPerOp: 2000},
	}}
	fresh := map[string]Point{
		"BenchmarkA":      {NsPerOp: 90, BytesPerOp: 60, AllocsPerOp: 41, Nodes: 7},
		"BenchmarkB":      {NsPerOp: 150, BytesPerOp: 40, AllocsPerOp: 11},
		"BenchmarkC":      {NsPerOp: 310, BytesPerOp: 16, AllocsPerOp: 30},
		"BenchmarkNew":    {AllocsPerOp: 1},
		"BenchmarkNoise1": {AllocsPerOp: 1160},
		"BenchmarkNoise2": {AllocsPerOp: 2246},
		"BenchmarkNoise3": {AllocsPerOp: 1460},
		"BenchmarkDrop5":  {AllocsPerOp: 1900},
	}
	got := ratchetBaseline(base, fresh)
	if want := []string{"BenchmarkA: 50 -> 41 allocs/op", "BenchmarkDrop5: 2000 -> 1900 allocs/op"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tightened %q, want %q", got, want)
	}
	want := map[string]Point{
		"BenchmarkA":      {NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 41, Nodes: 7},
		"BenchmarkB":      {NsPerOp: 200, BytesPerOp: 32, AllocsPerOp: 10},
		"BenchmarkC":      {NsPerOp: 300, BytesPerOp: 16, AllocsPerOp: 30},
		"BenchmarkD":      {AllocsPerOp: 5},
		"BenchmarkNoise1": {AllocsPerOp: 1162},
		"BenchmarkNoise2": {AllocsPerOp: 2247},
		"BenchmarkNoise3": {AllocsPerOp: 1461},
		"BenchmarkDrop5":  {AllocsPerOp: 1900},
	}
	if !reflect.DeepEqual(base.Benchmarks, want) {
		t.Fatalf("baseline after ratchet:\n%+v\nwant\n%+v", base.Benchmarks, want)
	}
	if again := ratchetBaseline(base, fresh); len(again) != 0 {
		t.Fatalf("second ratchet with the same run tightened %q", again)
	}
}

// TestNextPoint pins -out next: the point after the highest-numbered
// BENCH_<n>.json, compared as numbers (BENCH_27 follows BENCH_9), with the
// baseline and other names ignored.
func TestNextPoint(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{nil, "BENCH_1.json"},
		{[]string{"BENCH_BASELINE.json"}, "BENCH_1.json"},
		{[]string{"BENCH_9.json", "BENCH_27.json", "BENCH_12.json", "BENCH_BASELINE.json"}, "BENCH_28.json"},
		{[]string{"BENCH_27.json", "BENCH_28.json.bak", "OLD_BENCH_99.json", "BENCH_x.json"}, "BENCH_28.json"},
	} {
		if got := nextPoint(tc.names); got != tc.want {
			t.Errorf("nextPoint(%q) = %s, want %s", tc.names, got, tc.want)
		}
	}
}
