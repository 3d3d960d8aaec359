package consensus

import (
	"context"
	"testing"

	"waitfree/internal/explore"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

func TestCASRegister3Correct(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 3-process exploration")
	}
	im := CASRegister3()
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}
	report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{Memoize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("%s\n%v", report.Summary(), report.Violation)
	}
	// Two announces + cas per process, plus one read for each of the two
	// losers: 3 + 4 + 4.
	if report.Depth != 11 {
		t.Errorf("D = %d, want 11", report.Depth)
	}
	// Every announcement bit: at most one write (by its writer) and one
	// read (by its reader).
	for obj := 1; obj <= 6; obj++ {
		if got := report.OpAccess[obj][types.OpWrite]; got != 1 {
			t.Errorf("obj%d writes = %d, want 1", obj, got)
		}
		if got := report.OpAccess[obj][types.OpRead]; got > 1 {
			t.Errorf("obj%d reads = %d, want <= 1", obj, got)
		}
	}
}

func TestCASRegister3Solo(t *testing.T) {
	im := CASRegister3()
	for p := 0; p < 3; p++ {
		for v := 0; v <= 1; v++ {
			states := im.InitialStates()
			res, err := program.Solo(im, states, p, types.Propose(v), nil, 100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Resp != types.ValOf(v) {
				t.Errorf("solo p%d propose(%d) decided %v", p, v, res.Resp)
			}
			if res.Steps != 3 {
				t.Errorf("solo run took %d steps, want 3 (two announces + cas)", res.Steps)
			}
		}
	}
}

func TestAnnIdxBijective(t *testing.T) {
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			idx := annIdx(i, j)
			if idx < 1 || idx > 6 {
				t.Fatalf("annIdx(%d,%d) = %d out of range", i, j, idx)
			}
			if seen[idx] {
				t.Fatalf("annIdx(%d,%d) = %d collides", i, j, idx)
			}
			seen[idx] = true
		}
	}
}
