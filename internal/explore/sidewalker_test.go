package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"waitfree/internal/consensus"
)

// Digests of the Valency reports (%+v) and Dot renderings (budget 4000) of
// the consensus corpus, each run with proposals p % 2, in corpus order.
const (
	valencyDigest = "fe6b0debd585754fe8726b3585e734fd3c380cb91924637c60888e9e4804e657"
	dotDigest     = "b7f4391f219ba7e217e35cdc67db6b5f6deb4a3cecd73ab24e4767b3744bd982"
)

// TestSideWalkerPins pins what the tree walkers outside the DFS report,
// byte for byte: a change to how Valency or Dot steps the tree, orders
// its edges or detects its leaves changes a digest. An error (a budget
// exceeded, a decision out of range) is part of the digest too.
func TestSideWalkerPins(t *testing.T) {
	vh, dh := sha256.New(), sha256.New()
	for _, im := range consensus.Corpus() {
		props := make([]int, im.Procs)
		for p := range props {
			props[p] = p % 2
		}
		report, err := Valency(im, props)
		fmt.Fprintf(vh, "%s: %+v %v\n", im.Name, report, err)
		out, err := Dot(im, consensusScripts(props), 4000)
		fmt.Fprintf(dh, "%s: %v\n%s", im.Name, err, out)
	}
	if got := hex.EncodeToString(vh.Sum(nil)); got != valencyDigest {
		t.Errorf("valency digest = %s, want %s", got, valencyDigest)
	}
	if got := hex.EncodeToString(dh.Sum(nil)); got != dotDigest {
		t.Errorf("dot digest = %s, want %s", got, dotDigest)
	}
}
