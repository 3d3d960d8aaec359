package runtime

import (
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/linearize"
	"waitfree/internal/program"
	"waitfree/internal/sched"
	"waitfree/internal/types"
)

func proposals(vals ...int) [][]types.Invocation {
	scripts := make([][]types.Invocation, len(vals))
	for p, v := range vals {
		scripts[p] = []types.Invocation{types.Propose(v)}
	}
	return scripts
}

func TestObjectInvoke(t *testing.T) {
	o := NewObject(types.TestAndSet(2), 0, nil)
	r1, err := o.Invoke(1, types.TAS)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := o.Invoke(2, types.TAS)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != types.ValOf(0) || r2 != types.ValOf(1) {
		t.Errorf("tas responses = %v, %v", r1, r2)
	}
	if o.State() != 1 {
		t.Errorf("state = %v", o.State())
	}
	if _, err := o.Invoke(5, types.TAS); err == nil {
		t.Error("bad port accepted")
	}
}

func TestObjectNondeterministicResolution(t *testing.T) {
	// Force the resolver to pick the second branch of a DEAD one-use-bit
	// read, which returns 1.
	o := NewObject(types.OneUseBit(), types.OneUseDead, func(n int) int { return 1 })
	r, err := o.Invoke(1, types.Read)
	if err != nil {
		t.Fatal(err)
	}
	if r != types.ValOf(1) {
		t.Errorf("forced branch response = %v", r)
	}
}

func TestObjectNegativeResolveNormalized(t *testing.T) {
	// A user-supplied resolver may return any int; Invoke must normalize
	// the pick into [0, len(ts)) — Go's % keeps the dividend's sign, so a
	// negative return used to index out of range and panic.
	for _, pick := range []int{-1, -2, -7} {
		o := NewObject(types.OneUseBit(), types.OneUseDead, func(n int) int { return pick })
		r, err := o.Invoke(1, types.Read)
		if err != nil {
			t.Fatalf("resolve=%d: %v", pick, err)
		}
		if r != types.ValOf(0) && r != types.ValOf(1) {
			t.Errorf("resolve=%d: response %v", pick, r)
		}
	}
	// A full run with an always-negative resolver must still satisfy
	// agreement and validity.
	im := consensus.NoisySticky2()
	r, err := New(im, nil, func(int) int { return -1 })
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(proposals(0, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d0, d1 := out.Responses[0][0], out.Responses[1][0]
	if d0 != d1 {
		t.Fatalf("disagreement %v vs %v", d0, d1)
	}
	if d0.Val != 0 && d0.Val != 1 {
		t.Fatalf("invalid decision %v", d0)
	}
}

func TestConsensusUnderFreeScheduler(t *testing.T) {
	for i := 0; i < 50; i++ {
		r, err := New(consensus.TAS2(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Run(proposals(0, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		d0 := out.Responses[0][0]
		d1 := out.Responses[1][0]
		if d0 != d1 {
			t.Fatalf("run %d: disagreement %v vs %v", i, d0, d1)
		}
		if d0.Val != 0 && d0.Val != 1 {
			t.Fatalf("run %d: invalid decision %v", i, d0)
		}
	}
}

func TestConsensusUnderTokenSchedulerManySeeds(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, mk := range []func() *program.Implementation{
			consensus.TAS2, consensus.Queue2, consensus.FAA2, consensus.WeakLeader2,
		} {
			im := mk()
			out, err := RunSeeded(im, proposals(0, 1), seed)
			if err != nil {
				t.Fatalf("%s: %v", im.Name, err)
			}
			if out.Responses[0][0] != out.Responses[1][0] {
				t.Fatalf("%s seed %d: disagreement %v vs %v",
					im.Name, seed, out.Responses[0][0], out.Responses[1][0])
			}
		}
	}
}

func TestCrashToleranceWaitFreedom(t *testing.T) {
	// Crash process 0 after each possible number of steps; process 1 must
	// always complete with a valid decision (wait-freedom under stopping
	// failures).
	for crashAfter := 0; crashAfter <= 4; crashAfter++ {
		im := consensus.TAS2()
		cr := sched.NewCrash(map[int]int{0: crashAfter})
		r, err := New(im, cr, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Run(proposals(1, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if crashAfter < 2 && !out.Crashed[0] {
			// Every path of TAS2 takes at least 2 steps (announce + tas),
			// so a budget below 2 always crashes process 0. (With a larger
			// budget the process may win and finish within it.)
			t.Errorf("crashAfter=%d: process 0 did not crash", crashAfter)
		}
		if len(out.Responses[1]) != 1 {
			t.Fatalf("crashAfter=%d: survivor did not decide", crashAfter)
		}
		d := out.Responses[1][0]
		if d.Val != 0 && d.Val != 1 {
			t.Fatalf("crashAfter=%d: invalid decision %v", crashAfter, d)
		}
		// The survivor's history operation must be complete, the crashed
		// process's possibly pending.
		if err := out.History.Validate(); err != nil {
			t.Fatalf("crashAfter=%d: malformed history: %v", crashAfter, err)
		}
	}
}

func TestHistoryLinearizableAgainstConsensusSpec(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		out, err := RunSeeded(consensus.Queue2(), proposals(0, 1), seed)
		if err != nil {
			t.Fatal(err)
		}
		h := out.History.Complete()
		if _, err := linearize.Check(types.Consensus(2), types.ConsensusUndecided, h); err != nil {
			t.Fatalf("seed %d: %v\nhistory: %v", seed, err, h)
		}
	}
}

func TestRunShapeErrors(t *testing.T) {
	r, err := New(consensus.TAS2(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(nil, nil); err == nil {
		t.Error("script count mismatch accepted")
	}
}

func TestTokenSchedulerIsReproducible(t *testing.T) {
	// The Token scheduler makes the access interleaving — and therefore
	// every response and final object state — a deterministic function of
	// the seed. (History clock stamps are not covered: Begin/End ticks are
	// taken outside the scheduler gate.)
	type fingerprint struct {
		d0, d1 types.Response
		steps  int64
		state  types.State
	}
	runOnce := func(seed int64) fingerprint {
		im := consensus.FAA2()
		tok := sched.NewToken(im.Procs, seed, nil)
		r, err := New(im, tok, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Run(proposals(0, 1), nil)
		tok.Stop()
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint{
			d0:    out.Responses[0][0],
			d1:    out.Responses[1][0],
			steps: out.Steps,
			state: r.Objects()[0].State(),
		}
	}
	for seed := int64(0); seed < 10; seed++ {
		a := runOnce(seed)
		b := runOnce(seed)
		if a != b {
			t.Errorf("seed %d: %+v vs %+v", seed, a, b)
		}
	}
}

// TestNondeterministicObjectsUnderTokenScheduler drives the noisy-sticky
// consensus protocol — whose object has adversarial unstuck reads — with
// seeded schedulers and seeded nondeterminism resolution: agreement and
// validity must hold in every sampled run.
func TestNondeterministicObjectsUnderTokenScheduler(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		im := consensus.NoisySticky2()
		tok := sched.NewToken(im.Procs, seed, nil)
		resolveRng := seed
		r, err := New(im, tok, func(n int) int {
			resolveRng = resolveRng*6364136223846793005 + 1
			v := int(resolveRng>>33) % n
			if v < 0 {
				v = -v
			}
			return v
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Run(proposals(0, 1), nil)
		tok.Stop()
		if err != nil {
			t.Fatal(err)
		}
		d0, d1 := out.Responses[0][0], out.Responses[1][0]
		if d0 != d1 {
			t.Fatalf("seed %d: disagreement %v vs %v", seed, d0, d1)
		}
		if d0.Val != 0 && d0.Val != 1 {
			t.Fatalf("seed %d: invalid decision %v", seed, d0)
		}
	}
}
