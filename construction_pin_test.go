// Construction pins: the SHA-256 of the canonical encoding and of the
// canonical consensus reports of every protocol built by the consensus,
// multivalue and registers builders. A refactor of how a construction is
// assembled must leave every digest here unchanged; a digest that moves
// means the construction itself changed.
package waitfree_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/experiments"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/multivalue"
	"waitfree/internal/program"
	"waitfree/internal/types"
)

// constructionPin is one pinned protocol: its proposal count and one
// digest over its canonical encoding and its memoized consensus reports
// with no faults and with at most one crash-stop.
type constructionPin struct {
	name   string
	im     func() *program.Implementation
	k      int
	digest string
}

func constructionPins() []constructionPin {
	cas := func(n int) func() *program.Implementation {
		return func() *program.Implementation { return consensus.CAS(n) }
	}
	sticky := func(n int) func() *program.Implementation {
		return func() *program.Implementation { return consensus.Sticky(n) }
	}
	augQueue := func(n int) func() *program.Implementation {
		return func() *program.Implementation { return consensus.AugQueue(n) }
	}
	fetchCons := func(n int) func() *program.Implementation {
		return func() *program.Implementation { return consensus.FetchCons(n) }
	}
	return []constructionPin{
		{"tas2", consensus.TAS2, 2, "268aa7db178783f313c88459f0bbd252b37acfc1bb593448987acd358ec42321"},
		{"queue2", consensus.Queue2, 2, "67e4193f85f5ac03ec3697e0c20034ed940de719590396daa9c3a832fbe917ec"},
		{"stack2", consensus.Stack2, 2, "d0fefa730d06b489b9a61217e5253efc1586f03d3c23d6ecbc823b604fcfd520"},
		{"faa2", consensus.FAA2, 2, "297c4781fe580932fcd9bf40babad5c9db735d6484e022d8e467f6483d6df998"},
		{"swap2", consensus.Swap2, 2, "50e3b39283fb49daed8b85f04e6ce468a87726b197e4f6239530dfc87691167a"},
		{"weakleader2", consensus.WeakLeader2, 2, "5abad670f28477474b430d3c1841aa412728320b419dd1bfce7cb2d7f26c4084"},
		{"noisysticky2", consensus.NoisySticky2, 2, "8579ddf7aa8b59963ff904b7423da419598a21de57c7ae7f0da1f79d305823ef"},
		{"noisysticky2r", consensus.NoisySticky2R, 2, "2770cbbce14799306c51a635d094b6813c419b5a65ff353dd6795e1e78259148"},
		{"cas2", cas(2), 2, "4cd4acfe1718b6bbfd0187a1920310af20657f0e0cf61fa210d9862e784faffb"},
		{"sticky2", sticky(2), 2, "46b65b5e749e179b606ef9d783d120befbf2622cf96dbb16d376533c3202e588"},
		{"augqueue2", augQueue(2), 2, "bde49d05c92f552e4acd73f69b0af145a06a11dfbad37340083bb0b0c0678262"},
		{"fetchcons2", fetchCons(2), 2, "f9c45904725b13634caa14a822fb4f6c7cba291b3b04d44629c23272cc2def20"},
		{"cas3", cas(3), 2, "3cff4a5c9eb697216ca2b5e83b195a65c9af10661c080a43c99efcb6244c4b11"},
		{"sticky3", sticky(3), 2, "8358a44f95e27e7ccae2d6abf798ebd161dfd5278329029e26ee4bb9661df8f8"},
		{"augqueue3", augQueue(3), 2, "e0914939cfaadb9e3b86bd3b138391852881f26a3001d55bc13c4c54ad8370fc"},
		{"fetchcons3", fetchCons(3), 2, "0fdb0827ce4ef861b1adcc06c149a30b175dd8caea81e20281823c94dbe7bc26"},
		{"cas4", cas(4), 2, "c212c6aceb883da52ceeeca63350ddbc5c2e099168883f410b836dea41a3eb75"},
		{"sticky4", sticky(4), 2, "787a26a4874126b3d9c1b33b8e9fb7b748162343b91d1a515dee8d93047a4110"},
		{"augqueue4", augQueue(4), 2, "476814f81784afddf9ca12f68ea6ead99b65f0cf4b78489942ac7ce6f1c980ee"},
		{"fetchcons4", fetchCons(4), 2, "58105dd42c6f951856ce629405220ee43bc1c3e6cc29e5ff55aa71b3731ec169"},
		{"frombinary3_3", func() *program.Implementation { return multivalue.FromBinary(3, 3) }, 3, "b7d68e7538f5b70963d1b6a14782df64de9f67cb91ac6ea3c9f58b8d5e31a035"},
		{"frombinarysrsw3", func() *program.Implementation { return multivalue.FromBinarySRSW(3) }, 3, "c5f9bd825bf5467be565ca420757ac4ae592001af44b837a4c763f73060399c0"},
	}
}

// constructionDigest hashes im's canonical encoding over the proposals
// 0..k-1 and its canonical memoized consensus reports, fault-free and
// under one crash-stop.
func constructionDigest(t *testing.T, im *program.Implementation, k int) string {
	t.Helper()
	starts := make([]types.Invocation, k)
	for v := range starts {
		starts[v] = types.Propose(v)
	}
	h := sha256.New()
	// An unbounded object type has no canonical encoding; its refusal is
	// pinned instead.
	enc, err := explore.CanonicalImplementation(im, starts)
	switch {
	case errors.Is(err, explore.ErrUncanonical):
		h.Write([]byte(err.Error()))
	case err != nil:
		t.Fatal(err)
	default:
		h.Write(enc)
	}
	for _, model := range []faults.Model{{}, {Mode: faults.CrashStop, MaxCrashes: 1}} {
		rep, err := explore.ConsensusKContext(context.Background(), im, k, explore.Options{Memoize: true, Faults: model})
		if err != nil {
			t.Fatal(err)
		}
		rep.Stats = nil
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestConstructionPins(t *testing.T) {
	for _, pin := range constructionPins() {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			t.Parallel()
			if got := constructionDigest(t, pin.im(), pin.k); got != pin.digest {
				t.Errorf("digest %s, want %s", got, pin.digest)
			}
		})
	}
}

// TestRegisterPins pins the exploration bounds of E2's Lamport
// multi-value row and the canonical form of the SRSW bit type.
func TestRegisterPins(t *testing.T) {
	var lamport *experiments.RegisterLayer
	for _, l := range experiments.RegisterLayers() {
		if l.Name == "Lamport SRSW regular multi-value" {
			l := l
			lamport = &l
		}
	}
	if lamport == nil {
		t.Fatal("E2 has no Lamport multi-value row")
	}
	res, err := lamport.Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation: %v", res.Violation)
	}
	if got, want := fmt.Sprintf("%d nodes, %d leaves, depth %d", res.Nodes, res.Leaves, res.Depth), "311 nodes, 83 leaves, depth 14"; got != want {
		t.Errorf("lamport-multireg(k=4) explored %s, want %s", got, want)
	}
	enc, err := explore.CanonicalSpec(types.SRSWBit(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	if got, want := hex.EncodeToString(sum[:]), "7172c273bdf06b38af2e1b64b181af7d3055d4d9750cd608cb519a833b135fb6"; got != want {
		t.Errorf("CanonicalSpec(SRSWBit) digest %s, want %s", got, want)
	}
}
