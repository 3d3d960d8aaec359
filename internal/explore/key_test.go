package explore

import (
	"bytes"
	"fmt"
	"testing"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

func keyOf(e *keyEncoder, c *config) string { return string(e.configKey(c)) }

func testConfig(objState types.State, mem any, resp types.Response) *config {
	return &config{
		objs: []types.State{objState},
		procs: []procState{
			{OpIdx: 1, Mem: mem, Mst: 3, Pending: program.Action{Kind: program.KindInvoke, Obj: 0, Inv: types.TAS}, Resp: resp},
			{OpIdx: 0, Done: true, Resp: types.ValOf(1)},
		},
	}
}

func TestConfigKeyInjective(t *testing.T) {
	e := newKeyEncoder()
	base := testConfig(0, nil, types.ValOf(0))
	variants := []*config{
		testConfig(1, nil, types.ValOf(0)),        // object state differs
		testConfig(0, 7, types.ValOf(0)),          // memory differs
		testConfig(0, nil, types.ValOf(1)),        // response differs
		testConfig(0, true, types.ValOf(0)),       // bool 1 vs absent
		testConfig(0, "7", types.ValOf(0)),        // string "7" vs int 7
		testConfig("0", nil, types.ValOf(0)),      // string state vs int state
		testConfig(0, types.OK, types.ValOf(0)),   // Response as memory
		testConfig(0, types.Read, types.ValOf(0)), // Invocation as memory
	}
	baseKey := keyOf(e, base)
	seen := map[string]int{baseKey: -1}
	for i, v := range variants {
		k := keyOf(e, v)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[k] = i
	}
}

func TestConfigKeyDeterministic(t *testing.T) {
	// Equal configs encode identically, under one encoder (buffer reuse
	// must not corrupt) and across encoders (type-id interning follows
	// encounter order, which equal encode sequences share).
	type userState struct{ A, B int }
	mk := func() *config { return testConfig(userState{1, 2}, userState{3, 4}, types.OK) }
	e1, e2 := newKeyEncoder(), newKeyEncoder()
	k1a := keyOf(e1, mk())
	_ = keyOf(e1, testConfig(userState{9, 9}, nil, types.OK)) // perturb the buffer
	k1b := keyOf(e1, mk())
	if k1a != k1b {
		t.Error("same encoder produced different keys for equal configs")
	}
	if k2 := keyOf(e2, mk()); k2 != k1a {
		t.Error("fresh encoder produced a different key for an equal config")
	}
}

// TestConfigKeyMapDeterministic is the regression test for map-valued
// machine states: Go randomizes map iteration order, so the encoder must
// render equal maps identically regardless of insertion order (entries are
// sorted by their encoded bytes) while keeping distinct maps distinct.
func TestConfigKeyMapDeterministic(t *testing.T) {
	type mapState struct{ M map[int]int }
	e := newKeyEncoder()
	build := func(reversed bool) map[int]int {
		m := make(map[int]int)
		if reversed {
			for i := 7; i >= 0; i-- {
				m[i] = i * i
			}
		} else {
			for i := 0; i < 8; i++ {
				m[i] = i * i
			}
		}
		return m
	}
	// Maps directly as machine memory and nested in a struct state; many
	// iterations so a randomized iteration order would actually surface.
	want := keyOf(e, testConfig(0, build(false), types.OK))
	wantNested := keyOf(e, testConfig(mapState{build(false)}, nil, types.OK))
	for i := 0; i < 32; i++ {
		if got := keyOf(e, testConfig(0, build(i%2 == 1), types.OK)); got != want {
			t.Fatalf("iteration %d: equal maps encoded differently", i)
		}
		if got := keyOf(e, testConfig(mapState{build(i%2 == 1)}, nil, types.OK)); got != wantNested {
			t.Fatalf("iteration %d: equal struct-nested maps encoded differently", i)
		}
	}
	distinct := []any{
		map[int]int{1: 2},
		map[int]int{1: 3},       // value differs
		map[int]int{2: 2},       // key differs
		map[int]int{1: 2, 2: 2}, // extra entry
		map[int]int{},           // empty
		map[int]int(nil),        // nil (must differ from empty)
		map[string]int{"1": 2},  // key type differs
	}
	seen := map[string]int{}
	for i, m := range distinct {
		k := keyOf(e, testConfig(0, m, types.OK))
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct map %d collides with map %d", i, prev)
		}
		seen[k] = i
	}
}

// TestCanonKey pins the canonical key: invariant under process
// permutation, sensitive to everything else, with perm listing the
// processes in canonical slot order.
func TestCanonKey(t *testing.T) {
	e := newKeyEncoder()
	c := testConfig(0, 7, types.ValOf(1))
	swapped := &config{
		objs:  c.objs,
		procs: []procState{c.procs[1], c.procs[0]},
	}
	k1, perm1 := e.canonKey(c)
	k2, perm2 := e.canonKey(swapped)
	if !bytes.Equal(k1, k2) {
		t.Error("canonical keys differ under process permutation")
	}
	// The two orderings pick mirrored slot assignments of the same config.
	if perm1[0] == perm1[1] || perm2[0] != perm1[1] || perm2[1] != perm1[0] {
		t.Errorf("perms %v / %v are not mirrored assignments", perm1, perm2)
	}
	// canonKey is canonical, not lossy: a genuinely different process state
	// must still change the key.
	other := testConfig(0, 8, types.ValOf(1))
	if k3, _ := e.canonKey(other); bytes.Equal(k1, k3) {
		t.Error("canonical key ignored a memory difference")
	}
	// Object states are positional, not sorted: swapping distinct object
	// states must change the key.
	twoObjs := &config{objs: []types.State{0, 1}, procs: c.procs}
	objsSwapped := &config{objs: []types.State{1, 0}, procs: c.procs}
	ka, _ := e.canonKey(twoObjs)
	kb, _ := e.canonKey(objsSwapped)
	if bytes.Equal(ka, kb) {
		t.Error("canonical key conflated permuted object states")
	}
}

// FuzzCanonKeyPermutationInvariant fuzzes the defining property of the
// canonical key: for every configuration and every permutation pi of its
// processes, canonKey(c) == canonKey(pi(c)) under one encoder.
func FuzzCanonKeyPermutationInvariant(f *testing.F) {
	f.Add(0, 1, 2, "s", uint8(1))
	f.Add(7, 7, -3, "", uint8(5))
	f.Add(-1, 0, 1, "xyz", uint8(3))
	perms3 := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	f.Fuzz(func(t *testing.T, a, b, c int, s string, permSeed uint8) {
		cfg := &config{
			objs: []types.State{a % 4, s},
			procs: []procState{
				{OpIdx: a & 3, Mem: a, Mst: s, Resp: types.ValOf(b & 7)},
				{OpIdx: b & 3, Done: b&4 != 0, Mem: s, Mst: c, Pending: program.Action{Kind: program.KindInvoke, Obj: a & 1, Inv: types.TAS}},
				{OpIdx: c & 3, Crashed: c&4 != 0, Stepped: a&4 != 0, Mem: nil, Mst: b, Resp: types.OK},
			},
		}
		pi := perms3[int(permSeed)%len(perms3)]
		permuted := &config{
			objs:  cfg.objs,
			procs: []procState{cfg.procs[pi[0]], cfg.procs[pi[1]], cfg.procs[pi[2]]},
		}
		e := newKeyEncoder()
		k1, _ := e.canonKey(cfg)
		k2, _ := e.canonKey(permuted)
		if !bytes.Equal(k1, k2) {
			t.Errorf("canonKey not permutation-invariant under pi=%v\n%x\n%x", pi, k1, k2)
		}
	})
}

// BenchmarkConfigKey compares the byte encoder against the fmt rendering
// it replaced, on a configuration with user-defined (reflection-path)
// states.
func BenchmarkConfigKey(b *testing.B) {
	type userState struct{ A, B, C int }
	c := testConfig(userState{1, 2, 3}, userState{4, 5, 6}, types.OK)
	b.Run("encoder", func(b *testing.B) {
		e := newKeyEncoder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = e.configKey(c)
		}
	})
	b.Run("fmt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = fmt.Sprintf("%#v|%#v", c.objs, c.procs)
		}
	})
}
