package main

import (
	"reflect"
	"testing"
)

// TestRatchetBaseline pins -ratchet on a synthetic baseline: an entry the
// fresh run beat is lowered to the fresh allocs/op with its other fields
// kept, an equal or worse entry is never raised, an entry the run did not
// measure is kept, and a fresh row the baseline lacks is not added.
func TestRatchetBaseline(t *testing.T) {
	base := &File{Benchmarks: map[string]Point{
		"BenchmarkA": {NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 50, Nodes: 7},
		"BenchmarkB": {NsPerOp: 200, BytesPerOp: 32, AllocsPerOp: 10},
		"BenchmarkC": {NsPerOp: 300, BytesPerOp: 16, AllocsPerOp: 30},
		"BenchmarkD": {AllocsPerOp: 5},
	}}
	fresh := map[string]Point{
		"BenchmarkA":   {NsPerOp: 90, BytesPerOp: 60, AllocsPerOp: 41, Nodes: 7},
		"BenchmarkB":   {NsPerOp: 150, BytesPerOp: 40, AllocsPerOp: 11},
		"BenchmarkC":   {NsPerOp: 310, BytesPerOp: 16, AllocsPerOp: 30},
		"BenchmarkNew": {AllocsPerOp: 1},
	}
	got := ratchetBaseline(base, fresh)
	if want := []string{"BenchmarkA: 50 -> 41 allocs/op"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tightened %q, want %q", got, want)
	}
	want := map[string]Point{
		"BenchmarkA": {NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 41, Nodes: 7},
		"BenchmarkB": {NsPerOp: 200, BytesPerOp: 32, AllocsPerOp: 10},
		"BenchmarkC": {NsPerOp: 300, BytesPerOp: 16, AllocsPerOp: 30},
		"BenchmarkD": {AllocsPerOp: 5},
	}
	if !reflect.DeepEqual(base.Benchmarks, want) {
		t.Fatalf("baseline after ratchet:\n%+v\nwant\n%+v", base.Benchmarks, want)
	}
	if again := ratchetBaseline(base, fresh); len(again) != 0 {
		t.Fatalf("second ratchet with the same run tightened %q", again)
	}
}
