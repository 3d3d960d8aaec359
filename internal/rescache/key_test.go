package rescache

import (
	"testing"

	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/multivalue"
	"waitfree/internal/synth"
	"waitfree/internal/types"
)

// TestRequestKeyStable pins the content address of one request per kind
// (and both elimination routes). The hex values are part of the on-disk
// cache format: a change here silently re-keys every existing cache
// directory, so it must come with a keyMagic bump, never a quiet edit.
func TestRequestKeyStable(t *testing.T) {
	memo := explore.Options{Memoize: true}
	sticky := []synth.Object{{Name: "sticky", Spec: types.StickyCell(2, 2), Init: types.StickyUnset}}
	cases := []struct {
		name string
		spec KeySpec
		want string
	}{
		{"consensus", KeySpec{Kind: "consensus", Implementation: consensus.CAS(3), Explore: memo}, "83f4bcb7880588c9890eb8bb4473fa4fe3eec3645c86bfdedc391a6299e294f2"},
		{"consensus/k3", KeySpec{Kind: "consensus", Values: 3, Implementation: consensus.CAS(3)}, "572f8c5f6bed3f2d810145c507c535c66bb4392b9f3c25ff01df64470932d763"},
		{"bound", KeySpec{Kind: "bound", Implementation: consensus.TAS2(), Explore: memo}, "16ec05f42c7dbd31ccaf6b05c2b5ea6d2c3a1178ea1be016c48b722a6a592276"},
		{"bound/multivalued", KeySpec{Kind: "bound", Implementation: multivalue.FromBinarySRSW(3), Explore: memo}, "e4e6763b2d331b471da42b273919a650e3341760b1956937a2dc711f36ab2a08"},
		{"elimination/5.2", KeySpec{Kind: "elimination", Implementation: consensus.TAS2(), Explore: memo}, "91933ed1b93aa53522c26e3ae9d62a04bc16fe60b4342073e4d223f522bfcdd2"},
		{"elimination/5.2/maxk3", KeySpec{Kind: "elimination", MaxK: 3, Implementation: consensus.TAS2(), Explore: memo}, "91933ed1b93aa53522c26e3ae9d62a04bc16fe60b4342073e4d223f522bfcdd2"},
		{"elimination/5.2/maxk2", KeySpec{Kind: "elimination", MaxK: 2, Implementation: consensus.TAS2(), Explore: memo}, "5097caf92190b73fb5f2b0947bd556827a2d99096434ebdaefc649fbaf16263b"},
		{"elimination/5.3", KeySpec{Kind: "elimination", Implementation: consensus.NoisySticky2R(),
			Substrate: consensus.NoisySticky2(), Explore: memo}, "098e6bfdcf19d3c57c2dfb4fea34357b1d7f589547ddcf873fe7f15a38cef972"},
		{"elimination/multivalued", KeySpec{Kind: "elimination", Implementation: multivalue.FromBinarySRSW(3), Explore: memo}, "24302cec9707e6430021b64d75a3ac57b992338da7384c123e2fee5b3539291b"},
		{"classification", KeySpec{Kind: "classification"}, "35b5d7f24ab54f9eb7a986918e32689b93734b3a31e5208e6de6d92580ee83f2"},
		{"synthesis", KeySpec{Kind: "synthesis", Objects: sticky, Synthesis: synth.Options{Depth: 2}}, "35a9d1d309b74aeb3d04cb3cd72dabfc63549e18cbb10a13caa31bd575436659"},
	}
	for _, c := range cases {
		if got := mustKey(t, c.spec).Hex(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
