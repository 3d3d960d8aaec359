package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// renderModels are the fault models the rendering digest covers.
var renderModels = []faults.Model{
	{},
	{MaxCrashes: 2},
	{MaxCrashes: 2, Mode: faults.CrashBeforeFirstStep},
	{MaxCrashes: 2, Mode: faults.CrashRecovery, MaxRecoveries: 1},
}

// skipRegisterImpl is identityRegisterImpl with one more operation: "skip"
// completes without an object access. With the multi-op scripts of
// skipScripts, zero-access completions happen at the root, after an access
// and after a recovery.
func skipRegisterImpl() *program.Implementation {
	const skip = -2
	forward := program.FuncMachine{
		StartFn: func(inv types.Invocation, _ any) any {
			if inv.Op == "skip" {
				return casConsensusState{PC: 0, V: skip}
			}
			return casConsensusState{PC: 0, V: invCode(inv)}
		},
		NextFn: func(state any, resp types.Response) (program.Action, any) {
			s := state.(casConsensusState)
			if s.V == skip {
				return program.ReturnAction(types.OK, nil), s
			}
			if s.PC == 0 {
				return program.InvokeAction(0, decodeInv(s.V)), casConsensusState{PC: 1, V: s.V}
			}
			return program.ReturnAction(resp, nil), s
		},
	}
	im := identityRegisterImpl()
	im.Name = "skip-register"
	im.Machines = []program.Machine{forward, forward}
	return im
}

var skipScripts = [][]types.Invocation{
	{types.Inv("skip"), types.Write(1), types.Inv("skip"), types.Read},
	{types.Read, types.Inv("skip")},
}

// leafRecord is everything a rendered leaf reports about its path.
type leafRecord struct {
	History    any
	Schedule   []StepRecord
	Responses  [][]types.Response
	Crashed    []bool
	Recoveries []int
}

// hashLeaf folds one leaf's path data into h.
func hashLeaf(t *testing.T, h hash.Hash, l leafRecord) {
	t.Helper()
	b, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// renderCase is one implementation and its scripts.
type renderCase struct {
	im      *program.Implementation
	scripts [][]types.Invocation
}

// renderCases are the cases the rendering digest covers: every
// two-process member of the consensus corpus proposing 0 and 1, and
// skipRegisterImpl.
func renderCases() []renderCase {
	var cases []renderCase
	for _, im := range consensus.Corpus() {
		if im.Procs == 2 {
			cases = append(cases, renderCase{im, consensusScripts([]int{0, 1})})
		}
	}
	return append(cases, renderCase{skipRegisterImpl(), skipScripts})
}

// renderingDigest pins the leaf data of history runs and walks: the
// digest of every leaf's History, Schedule, Responses, Crashed and
// Recoveries, in DFS order, over renderCases under renderModels, and of
// seeded walks with crashes and recoveries over the same cases.
const renderingDigest = "25c4a952a24ecb05cd6d340a39388ca4b3d4366aa61a901ca4ff7574e6054409"

// TestLeafRenderingDigest pins what RecordHistory runs and Walk report at
// their leaves, byte for byte: any change to how the explorer records or
// renders a path changes the digest.
func TestLeafRenderingDigest(t *testing.T) {
	h := sha256.New()
	leaves, walks := 0, 0
	for _, tc := range renderCases() {
		for _, model := range renderModels {
			res, err := RunContext(context.Background(), tc.im, tc.scripts, Options{
				RecordHistory: true,
				Faults:        model,
				OnLeaf: func(l *Leaf) error {
					leaves++
					hashLeaf(t, h, leafRecord{l.History(), l.Schedule(), l.Responses(), l.Crashed(), l.Recoveries()})
					return nil
				},
			})
			if err != nil {
				t.Fatalf("%s %v: %v", tc.im.Name, model, err)
			}
			fmt.Fprintf(h, "%s %v: %d nodes, %d leaves, depth %d\n", tc.im.Name, model, res.Nodes, res.Leaves, res.Depth)
			if v := res.Violation; v != nil {
				fmt.Fprintf(h, "%v\n%s\n", v.Kind, FormatSchedule(v.Schedule))
			}
		}
		for seed := int64(0); seed < 50; seed++ {
			p := int(seed % 2)
			s := Schedule{Seed: seed, CrashAfter: map[int]int{p: int(seed % 3)}}
			if seed%5 != 0 {
				s.CrashAfter[1-p] = int(seed % 4)
				s.Recoveries = map[int]int{p: int(seed % 3), 1 - p: int(seed % 2)}
			}
			w, err := Walk(tc.im, tc.scripts, s)
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.im.Name, s, err)
			}
			walks++
			hashLeaf(t, h, leafRecord{w.History, w.Schedule, w.Responses, w.Crashed, w.Recoveries})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != renderingDigest {
		t.Errorf("rendering digest over %d leaves and %d walks = %s, want %s", leaves, walks, got, renderingDigest)
	}
}
