package experiments

import (
	"context"

	"waitfree"
	"waitfree/internal/explore"
	"waitfree/internal/program"
	"waitfree/internal/rescache"
)

// cache, when set, serves the harness's consensus explorations from the
// content-addressed result cache and stores fresh verdicts into it. The
// experiments run sequentially, so a plain package variable suffices.
var cache *rescache.Cache

// SetCache routes every subsequent consensus exploration through c (nil
// restores direct exploration). cmd/experiments calls this with the
// -cache directory before running the harness.
func SetCache(c *rescache.Cache) { cache = c }

// checkConsensus explores im as k-valued consensus through the waitfree
// facade, so the result cache (when set) can serve repeat runs. The
// returned report is the same ConsensusReport explore.ConsensusKContext would
// produce, except Elapsed/Stats are canonicalized when the cache is
// active (cold and warm runs must marshal byte-identically).
func checkConsensus(ctx context.Context, im *program.Implementation, k int, opts explore.Options) (*explore.ConsensusReport, error) {
	rep, err := waitfree.Check(ctx, waitfree.Request{
		Kind:           waitfree.KindConsensus,
		Implementation: im,
		Values:         k,
		Explore:        opts,
		Cache:          cache,
	})
	if err != nil {
		return nil, err
	}
	return rep.Consensus, nil
}
