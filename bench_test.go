// Benchmarks regenerating the measurements of EXPERIMENTS.md: one
// benchmark family per experiment (E1-E9) plus the ablations called out in
// DESIGN.md. The paper is pure theory and reports no absolute numbers; the
// quantities of interest are the cost *shapes* (how work scales with r, w,
// process count, and protocol size), which these benchmarks expose via
// sub-benchmark sweeps and ReportMetric.
package waitfree_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"waitfree/internal/consensus"
	"waitfree/internal/core"
	"waitfree/internal/durable"
	"waitfree/internal/experiments"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/hierarchy"
	"waitfree/internal/multivalue"
	"waitfree/internal/onebit"
	"waitfree/internal/program"
	"waitfree/internal/synth"
	"waitfree/internal/types"
	"waitfree/internal/universal"
)

// ---- E1: Section 4.3 one-use bit array ----

// BenchmarkOneUseBitArray walks one reader of r reads against one writer
// of w alternating writes on the Section 4.3 machines, one seeded walk per
// iteration, across array sizes r = w: each walk builds (w+1)*r one-use
// bits and flips a row per write — the paper's r*(w+1) space bound made
// visible as time.
func BenchmarkOneUseBitArray(b *testing.B) {
	for _, size := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("r=w=%d", size), func(b *testing.B) {
			im := onebit.Implementation(size, size, 0)
			scripts := [][]types.Invocation{make([]types.Invocation, size), make([]types.Invocation, size)}
			for k := 0; k < size; k++ {
				scripts[0][k] = types.Read
				scripts[1][k] = types.Write(1 - k%2)
			}
			// Each one-use bit is read at most once and written at most
			// once.
			s := explore.Schedule{MaxDepth: 2 * len(im.Objects)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Seed = int64(i)
				if _, err := explore.Walk(im, scripts, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(im.Objects)), "one-use-bits")
		})
	}
}

// ---- E2: Section 4.1 register chain ----

// BenchmarkRegisterChain explores every interleaving of each layer of the
// chain at its E2 script, bottom to top, checking every leaf; leaves/op
// shows how the interleavings grow with fan-out (readers/writers), the
// price of wait-freedom from weak cells.
func BenchmarkRegisterChain(b *testing.B) {
	for _, l := range experiments.RegisterLayers() {
		b.Run(l.Impl.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := l.Explore(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != nil {
					b.Fatal(res.Violation)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Leaves), "leaves/op")
				}
			}
		})
	}
}

// ---- E3: Section 4.2 access-bound computation ----

// BenchmarkAccessBound measures the execution-tree exploration that yields
// the bound D, per protocol; nodes/op exposes tree size.
func BenchmarkAccessBound(b *testing.B) {
	protos := map[string]func() *program.Implementation{
		"tas2":   consensus.TAS2,
		"queue2": consensus.Queue2,
		"faa2":   consensus.FAA2,
		"cas3":   func() *program.Implementation { return consensus.CAS(3) },
		"cas4":   func() *program.Implementation { return consensus.CAS(4) },
	}
	for name, mk := range protos {
		b.Run(name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				report, err := explore.ConsensusKContext(context.Background(), mk(), 2, explore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				nodes = report.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkExplorerMemoization is the DESIGN.md ablation: configuration
// deduplication on versus off, on a protocol with heavy path convergence.
func BenchmarkExplorerMemoization(b *testing.B) {
	for _, memo := range []bool{false, true} {
		b.Run(fmt.Sprintf("memoize=%v", memo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := explore.ConsensusKContext(context.Background(), consensus.CAS(4), 2, explore.Options{Memoize: memo}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplorerParallel sweeps Options.Parallelism on a protocol with
// many proposal-vector trees (CAS(4): 16 roots). On multi-core machines
// the trees spread across workers; the report is identical at every
// setting, so the sweep directly exposes the parallel speedup.
func BenchmarkExplorerParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := explore.ConsensusKContext(context.Background(), consensus.CAS(4), 2, explore.Options{Memoize: true, Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal(report.Summary())
				}
			}
		})
	}
}

// BenchmarkConsensusSymmetry sweeps symmetry reduction across process
// counts on the register-free n-process protocols: 2^n trees collapse to
// n+1 orbits, so the off/auto ratio approaches n!/(n+1)-fold less tree
// work as n grows. The report is byte-identical at every setting (pinned
// by TestSymmetryParityCorpus); the sweep exposes the saved time.
func BenchmarkConsensusSymmetry(b *testing.B) {
	protocols := []struct {
		name string
		mk   func(int) *program.Implementation
	}{
		{"sticky", consensus.Sticky},
		{"cas", consensus.CAS},
	}
	for _, pc := range protocols {
		name, mk := pc.name, pc.mk
		for _, procs := range []int{3, 4, 5} {
			for _, mode := range []explore.SymmetryMode{explore.SymmetryOff, explore.SymmetryAuto} {
				b.Run(fmt.Sprintf("%s/n=%d/symmetry=%v", name, procs, mode), func(b *testing.B) {
					im := mk(procs)
					var nodes int64
					for i := 0; i < b.N; i++ {
						report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{Memoize: true, Symmetry: mode})
						if err != nil {
							b.Fatal(err)
						}
						if !report.OK() {
							b.Fatal(report.Summary())
						}
						nodes = report.Stats.Nodes
					}
					b.ReportMetric(float64(nodes), "explored-nodes")
				})
			}
		}
	}
}

// BenchmarkConsensusFaults measures the fault-exploration hot path, which
// takes the crash/recovery expansion branches the plain sweep never
// exercises: TAS2 under crash-recovery (test-and-set has consensus number
// 2, so n=2 is its ceiling — the paper's hierarchy made concrete) and the
// augmented queue under crash-stop.
func BenchmarkConsensusFaults(b *testing.B) {
	cases := []struct {
		name  string
		mk    func() *program.Implementation
		model faults.Model
	}{
		{"tas2/crashrecovery", consensus.TAS2, faults.Model{Mode: faults.CrashRecovery, MaxCrashes: 1, MaxRecoveries: 1}},
		{"queue2/crashstop", consensus.Queue2, faults.Model{Mode: faults.CrashStop, MaxCrashes: 1}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			im := c.mk()
			var nodes int64
			for i := 0; i < b.N; i++ {
				report, err := explore.ConsensusKContext(context.Background(), im, 2, explore.Options{Memoize: true, Faults: c.model})
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal(report.Summary())
				}
				nodes = report.Stats.Nodes
			}
			b.ReportMetric(float64(nodes), "explored-nodes")
		})
	}
}

// BenchmarkConsensusNoMemo measures the unmemoized explorer, which walks
// the same key segments and transition and step caches as a memoized run
// but replicates every configuration the paper's trees replicate: sticky
// n=4, and the augmented queue under crash-stop with one crash.
func BenchmarkConsensusNoMemo(b *testing.B) {
	cases := []struct {
		name  string
		im    *program.Implementation
		model faults.Model
	}{
		{"sticky4", consensus.Sticky(4), faults.Model{}},
		{"augqueue3/crashstop", consensus.AugQueue(3), faults.Model{Mode: faults.CrashStop, MaxCrashes: 1}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				report, err := explore.ConsensusKContext(context.Background(), c.im, 2, explore.Options{Faults: c.model})
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal(report.Summary())
				}
				nodes = report.Stats.Nodes
			}
			b.ReportMetric(float64(nodes), "explored-nodes")
		})
	}
}

// BenchmarkConsensusMemo measures the memoized explorer on the two
// largest members of perfbench's verify-batch, with symmetry off so every
// tree is walked: the augmented queue at n=5 under crash-stop with one
// crash, and sticky n=6. Both spend their time in the memo keys, the
// transition and step caches and the per-edge config updates.
func BenchmarkConsensusMemo(b *testing.B) {
	cases := []struct {
		name  string
		im    *program.Implementation
		model faults.Model
	}{
		{"augqueue5-c1-off", consensus.AugQueue(5), faults.Model{Mode: faults.CrashStop, MaxCrashes: 1}},
		{"sticky6-off", consensus.Sticky(6), faults.Model{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opts := explore.Options{Memoize: true, Symmetry: explore.SymmetryOff, Faults: c.model}
			var nodes int64
			for i := 0; i < b.N; i++ {
				report, err := explore.ConsensusKContext(context.Background(), c.im, 2, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal(report.Summary())
				}
				nodes = report.Stats.Nodes
			}
			b.ReportMetric(float64(nodes), "explored-nodes")
		})
	}
}

// BenchmarkConsensusSpill measures the memo spill tier on memoized sticky
// n=5 with symmetry off: a MemoBudget of 128 entries per tree, far below
// each tree's memo, so evicted summaries are written to a per-tree spill
// file and read back on later misses. The report matches the unbounded
// run's; the cost of the spill record codec and its I/O is what moves.
func BenchmarkConsensusSpill(b *testing.B) {
	im := consensus.Sticky(5)
	opts := explore.Options{Memoize: true, Symmetry: explore.SymmetryOff, MemoBudget: 128, MemoSpillDir: b.TempDir()}
	var nodes int64
	for i := 0; i < b.N; i++ {
		report, err := explore.ConsensusKContext(context.Background(), im, 2, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !report.OK() || report.Degraded || report.Stats.MemoSpilled == 0 {
			b.Fatalf("spilled %d: %s", report.Stats.MemoSpilled, report.Summary())
		}
		nodes = report.Stats.Nodes
	}
	b.ReportMetric(float64(nodes), "explored-nodes")
}

// BenchmarkConsensusAutosave measures the durable-autosave overhead on
// sticky n=4: the same exploration with periodic checksummed checkpoint
// writes off, at 5s, and at 1s. The supervisor ticker and heartbeat
// bookkeeping are the only added work on this run length (the intervals
// never elapse), so the measured overhead pins the steady-state cost of
// arming -checkpoint-every: under 2% even at the 1s interval.
func BenchmarkConsensusAutosave(b *testing.B) {
	intervals := []struct {
		name  string
		every time.Duration
	}{
		{"off", 0},
		{"every=5s", 5 * time.Second},
		{"every=1s", time.Second},
	}
	for _, iv := range intervals {
		b.Run(iv.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "cp")
			opts := explore.Options{Memoize: true}
			if iv.every > 0 {
				opts.CheckpointEvery = iv.every
				opts.OnCheckpoint = func(cp *explore.Checkpoint) {
					if err := durable.SaveFS(nil, path, cp); err != nil {
						b.Error(err)
					}
				}
			}
			im := consensus.Sticky(4)
			for i := 0; i < b.N; i++ {
				report, err := explore.ConsensusKContext(context.Background(), im, 2, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal(report.Summary())
				}
			}
		})
	}
}

// ---- E4: Section 5.1/5.2 witness search ----

func BenchmarkWitnessSearch(b *testing.B) {
	cases := []struct {
		name  string
		spec  *types.Spec
		inits []types.State
	}{
		{"tas", types.TestAndSet(2), []types.State{0}},
		{"queue", types.Queue(2, 2, 3), []types.State{types.QueueState()}},
		{"cas", types.CompareSwap(2, 3), []types.State{2}},
		{"latch-flag(k=2)", types.LatchFlag(), []types.State{types.LatchFlagInit()}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hierarchy.FindPair(tc.spec, tc.inits, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E5: Section 5.3 one-use bit from consensus ----

func BenchmarkOneUseFromConsensus(b *testing.B) {
	im, err := onebit.FromConsensusImplementation(consensus.CAS(2))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("solo-read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			states := im.InitialStates()
			if _, err := program.Solo(im, states, 0, types.Read, nil, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("explore-all-interleavings", func(b *testing.B) {
		scripts := [][]types.Invocation{{types.Read}, {types.Write(1)}}
		for i := 0; i < b.N; i++ {
			res, err := explore.RunContext(context.Background(), im, scripts, explore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if res.Violation != nil {
				b.Fatal(res.Violation)
			}
		}
	})
}

// BenchmarkOneUseRealizations is the DESIGN.md ablation: the three ways to
// realize a one-use bit — Section 5.1/5.2 witnesses of different sequence
// lengths and the Section 5.3 consensus route — compared by solo read
// cost (object accesses are the explorer's step currency; here: time).
func BenchmarkOneUseRealizations(b *testing.B) {
	mk := map[string]func() (*program.Implementation, error){
		"5.2-tas-k1": func() (*program.Implementation, error) {
			im, _, err := onebit.FromType(types.TestAndSet(2), []types.State{0}, 3)
			return im, err
		},
		"5.2-latchflag-k2": func() (*program.Implementation, error) {
			im, _, err := onebit.FromType(types.LatchFlag(), []types.State{types.LatchFlagInit()}, 3)
			return im, err
		},
		"5.3-cas-consensus": func() (*program.Implementation, error) {
			return onebit.FromConsensusImplementation(consensus.CAS(2))
		},
	}
	for name, make := range mk {
		b.Run(name, func(b *testing.B) {
			im, err := make()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				states := im.InitialStates()
				if _, err := program.Solo(im, states, 0, types.Read, nil, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E6: Theorem 5 register elimination ----

func BenchmarkEliminate(b *testing.B) {
	protos := map[string]func() *program.Implementation{
		"tas2":   consensus.TAS2,
		"queue2": consensus.Queue2,
		"faa2":   consensus.FAA2,
		"swap2":  consensus.Swap2,
	}
	for name, mkP := range protos {
		b.Run(name, func(b *testing.B) {
			var outDepth int
			for i := 0; i < b.N; i++ {
				report, err := core.EliminateRegistersContext(context.Background(), mkP(), explore.Options{}, 3)
				if err != nil {
					b.Fatal(err)
				}
				outDepth = report.OutputReport.Depth
			}
			b.ReportMetric(float64(outDepth), "outputD")
		})
	}
}

// ---- E7: hierarchy equality across the zoo ----

func BenchmarkHierarchyEquality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.ClassifyZooContext(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E8: nondeterministic adversary exploration ----

func BenchmarkNondetAdversary(b *testing.B) {
	var nodes int64
	for i := 0; i < b.N; i++ {
		report, err := explore.ConsensusKContext(context.Background(), consensus.WeakLeader2(), 2, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !report.OK() {
			b.Fatal(report.Summary())
		}
		nodes = report.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// ---- E9: universal construction ----

// BenchmarkUniversal measures fetch-and-add throughput of the universal
// construction: each iteration is one seeded walk of procs processes
// sharing a fresh 64-operation log, reported per operation.
func BenchmarkUniversal(b *testing.B) {
	const ops = 64
	faa := types.Inv(types.OpFAA, 1)
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("counter/procs=%d", procs), func(b *testing.B) {
			im, err := universal.MachineImplementation(types.FetchAdd(procs), 0, procs, ops, []types.Invocation{faa})
			if err != nil {
				b.Fatal(err)
			}
			scripts := make([][]types.Invocation, procs)
			for p := range scripts {
				for i := 0; i < ops/procs; i++ {
					scripts[p] = append(scripts[p], faa)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := explore.Walk(im, scripts, explore.Schedule{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/faa")
		})
	}
}

// ---- E10: multi-valued consensus ----

// BenchmarkMultiValued measures the bit-by-bit construction's exploration
// cost as k grows (roots scale as k^2, machine length as log k).
func BenchmarkMultiValued(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("check/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := explore.ConsensusKContext(context.Background(), multivalue.FromBinary(2, k), k, explore.Options{Memoize: true})
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatal(report.Summary())
				}
			}
		})
	}
	b.Run("eliminate/k=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.EliminateRegistersContext(context.Background(), multivalue.FromBinarySRSW(4), explore.Options{Memoize: true}, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValency measures the FLP valency analysis per protocol.
func BenchmarkValency(b *testing.B) {
	protos := map[string]func() *program.Implementation{
		"tas2": consensus.TAS2,
		"cas3": func() *program.Implementation { return consensus.CAS(3) },
	}
	for name, mk := range protos {
		b.Run(name, func(b *testing.B) {
			im := mk()
			proposals := make([]int, im.Procs)
			for p := range proposals {
				proposals[p] = p % 2
			}
			for i := 0; i < b.N; i++ {
				if _, err := explore.Valency(im, proposals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E11: protocol synthesis ----

// BenchmarkSynth measures bounded synthesis: positive cases (protocol
// found) are fast; negative cases pay for exhausting the space.
func BenchmarkSynth(b *testing.B) {
	b.Run("find/cas", func(b *testing.B) {
		objects := []synth.Object{{Name: "cas", Spec: types.CompareSwap(2, 3), Init: 2}}
		for i := 0; i < b.N; i++ {
			if _, _, err := synth.SearchContext(context.Background(), objects, synth.Options{Depth: 1, Symmetric: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("find/augqueue", func(b *testing.B) {
		objects := []synth.Object{{Name: "aq", Spec: types.AugmentedQueue(2, 2, 2), Init: types.QueueState()}}
		for i := 0; i < b.N; i++ {
			if _, _, err := synth.SearchContext(context.Background(), objects, synth.Options{Depth: 2, Symmetric: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refute/tas-alone", func(b *testing.B) {
		objects := []synth.Object{{Name: "tas", Spec: types.TestAndSet(2), Init: 0}}
		for i := 0; i < b.N; i++ {
			_, _, err := synth.SearchContext(context.Background(), objects, synth.Options{Depth: 3, Budget: 1e9})
			if !errors.Is(err, synth.ErrNoProtocol) {
				b.Fatal(err)
			}
		}
	})
}
