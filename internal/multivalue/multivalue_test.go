package multivalue

import (
	"context"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

func TestBits(t *testing.T) {
	tests := []struct{ k, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
	}
	for _, tt := range tests {
		if got := Bits(tt.k); got != tt.want {
			t.Errorf("Bits(%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestBitOf(t *testing.T) {
	// v = 5 = 101 with b = 3: MSB first.
	if bitOf(5, 0, 3) != 1 || bitOf(5, 1, 3) != 0 || bitOf(5, 2, 3) != 1 {
		t.Errorf("bitOf(5, ., 3) = %d%d%d", bitOf(5, 0, 3), bitOf(5, 1, 3), bitOf(5, 2, 3))
	}
}

func TestPrefixMatches(t *testing.T) {
	// b = 3, v = 5 = 101: prefixes 1, 10, 101.
	if !prefixMatches(5, 0, 0, 3) {
		t.Error("empty prefix must match")
	}
	if !prefixMatches(5, 1, 1, 3) || prefixMatches(5, 0, 1, 3) {
		t.Error("1-bit prefix broken")
	}
	if !prefixMatches(5, 2, 2, 3) || prefixMatches(5, 3, 2, 3) {
		t.Error("2-bit prefix broken")
	}
	if !prefixMatches(5, 5, 3, 3) {
		t.Error("full prefix broken")
	}
}

// TestFromBinaryExhaustive model-checks the construction over every
// proposal vector, interleaving — the heart of the module.
func TestFromBinaryExhaustive(t *testing.T) {
	cases := []struct{ procs, k int }{
		{2, 2}, {2, 3}, {2, 4},
	}
	for _, tc := range cases {
		im := FromBinary(tc.procs, tc.k)
		if err := im.Validate(); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.procs, tc.k, err)
		}
		report, err := explore.ConsensusKContext(context.Background(), im, tc.k, explore.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("n=%d k=%d: %s\n%v", tc.procs, tc.k, report.Summary(), report.Violation)
		}
		if len(report.Decisions) != tc.k {
			t.Errorf("n=%d k=%d: decisions %v, want all %d values reachable",
				tc.procs, tc.k, report.Decisions, tc.k)
		}
	}
}

func TestFromBinaryThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 3-process exploration")
	}
	im := FromBinary(3, 3)
	report, err := explore.ConsensusKContext(context.Background(), im, 3, explore.Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("%s\n%v", report.Summary(), report.Violation)
	}
}

func TestFromBinarySRSWExhaustive(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		im := FromBinarySRSW(k)
		if err := im.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		report, err := explore.ConsensusKContext(context.Background(), im, k, explore.Options{Memoize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !report.OK() {
			t.Fatalf("k=%d: %s\n%v", k, report.Summary(), report.Violation)
		}
	}
}

func TestSoloDecidesOwnValue(t *testing.T) {
	for _, k := range []int{3, 4} {
		ims := []*program.Implementation{FromBinary(2, k), FromBinarySRSW(k)}
		for _, im := range ims {
			for p := 0; p < im.Procs; p++ {
				for v := 0; v < k; v++ {
					states := im.InitialStates()
					res, err := program.Solo(im, states, p, types.Propose(v), nil, 200)
					if err != nil {
						t.Fatalf("%s p%d v%d: %v", im.Name, p, v, err)
					}
					if res.Resp != types.ValOf(v) {
						t.Errorf("%s: solo p%d propose(%d) decided %v", im.Name, p, v, res.Resp)
					}
				}
			}
		}
	}
}

// TestAnnouncementsAreSingleWriter checks the register discipline the
// construction promises: announce[p] is written only by process p.
func TestAnnouncementsAreSingleWriter(t *testing.T) {
	im := FromBinary(2, 4)
	report, err := explore.ConsensusKContext(context.Background(), im, 4, explore.Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		if got := report.OpAccess[announceObj(p)][types.OpWrite]; got != 1 {
			t.Errorf("announce%d written %d times on some path, want 1", p, got)
		}
	}
}
