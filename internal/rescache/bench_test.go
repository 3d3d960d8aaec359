package rescache

import (
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/synth"
	"waitfree/internal/types"
)

// BenchmarkRequestKey measures RequestKey, which runs on every cached
// request, hit or miss, once per request kind. Its rows are the key
// layer of the per-layer ledger (perfbench's rescache.key_us_p50).
func BenchmarkRequestKey(b *testing.B) {
	memo := explore.Options{Memoize: true}
	sticky := []synth.Object{{Name: "sticky", Spec: types.StickyCell(2, 2), Init: types.StickyUnset}}
	cases := []struct {
		name string
		spec KeySpec
	}{
		{"consensus", KeySpec{Kind: "consensus", Implementation: consensus.CAS(3), Explore: memo}},
		{"bound", KeySpec{Kind: "bound", Implementation: consensus.TAS2(), Explore: memo}},
		{"elimination", KeySpec{Kind: "elimination", Implementation: consensus.TAS2(), Explore: memo}},
		{"classification", KeySpec{Kind: "classification"}},
		{"synthesis", KeySpec{Kind: "synthesis", Objects: sticky, Synthesis: synth.Options{Depth: 2}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RequestKey(c.spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
