package explore

import (
	"testing"

	"waitfree/internal/program"
	"waitfree/internal/types"
)

// rawConfig is a configuration given by its component values, before the
// explorer interns them.
type rawConfig struct {
	objs  []types.State
	procs []procState
}

// intern interns c's components in e's tables, as newRoot does.
func (e *explorer) intern(c *rawConfig) *config {
	ic := &config{objs: make([]int32, len(c.objs)), procs: make([]int32, len(c.procs))}
	for i, s := range c.objs {
		ic.objs[i] = e.internObj(s)
	}
	for p := range c.procs {
		ic.procs[p] = e.internProc(&c.procs[p])
	}
	return ic
}

// keyOf interns c in e and renders its segment concatenation: the
// encoding e's id keys stand for, and the one keyHex prints. Unlike the id
// keys, which are per-tree, it is comparable across encoders.
func keyOf(e *explorer, c *rawConfig) string {
	return string(e.appendSegKey(nil, e.intern(c)))
}

func testConfig(objState types.State, mem any, resp types.Response) *rawConfig {
	return &rawConfig{
		objs: []types.State{objState},
		procs: []procState{
			{OpIdx: 1, Mem: mem, Mst: 3, Pending: program.Action{Kind: program.KindInvoke, Obj: 0, Inv: types.TAS}, Resp: resp},
			{OpIdx: 0, Done: true, Resp: types.ValOf(1)},
		},
	}
}

func TestConfigKeyInjective(t *testing.T) {
	e := &explorer{}
	base := testConfig(0, nil, types.ValOf(0))
	variants := []*rawConfig{
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
	mk := func() *rawConfig { return testConfig(userState{1, 2}, userState{3, 4}, types.OK) }
	e1, e2 := &explorer{}, &explorer{}
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
	e := &explorer{}
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

// BenchmarkConfigKey compares the per-node key cost — assembling the id
// key from a config's interned ids — against interning every component
// afresh (encoding its segment and probing the intern table, a hit), on a
// configuration with user-defined (reflection-path) states.
func BenchmarkConfigKey(b *testing.B) {
	type userState struct{ A, B, C int }
	raw := testConfig(userState{1, 2, 3}, userState{4, 5, 6}, types.OK)
	b.Run("idKey", func(b *testing.B) {
		e := &explorer{}
		c := e.intern(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = e.idKey(c)
		}
	})
	b.Run("intern+idKey", func(b *testing.B) {
		e := &explorer{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = e.idKey(e.intern(raw))
		}
	})
}
