package explore_test

import (
	"context"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/explore"
	"waitfree/internal/multivalue"
	"waitfree/internal/program"
)

// BenchmarkPlanOrbits times the orbit-planning layer of a consensus run
// under SymmetryAuto: the symmetry certificate plus the orbit partition
// when it holds. The cases span large certified protocols, a multi-valued
// protocol whose machines differ, and the FAA elimination output, whose
// unbounded counter fails tabulation.
func BenchmarkPlanOrbits(b *testing.B) {
	faa, err := core.EliminateRegistersContext(context.Background(), consensus.FAA2(), explore.Options{Memoize: true}, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		im      *program.Implementation
		k       int
		reduced bool
	}{
		{"cas8", consensus.CAS(8), 2, true},
		{"sticky7", consensus.Sticky(7), 2, true},
		{"augqueue5", consensus.AugQueue(5), 2, true},
		{"frombinary3-k3", multivalue.FromBinary(3, 3), 3, false},
		{"faa-elim", faa.Output, 2, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, reduced, err := explore.PlanOrbits(tc.im, tc.k, explore.Options{Symmetry: explore.SymmetryAuto})
				if err != nil || reduced != tc.reduced {
					b.Fatalf("reduced=%v err=%v, want reduced=%v", reduced, err, tc.reduced)
				}
			}
		})
	}
}
