package linearize

import (
	"errors"
	"fmt"

	"waitfree/internal/hist"
	"waitfree/internal/types"
)

// ErrNotRegular reports a read that single-writer regularity forbids.
var ErrNotRegular = errors.New("linearize: history is not regular")

// CheckRegular decides single-writer regularity (Lamport 1986) of a
// register history initialized to init: every read returns the value of
// the latest write completed before the read began (init if there is
// none) or of some write overlapping the read. Regularity is weaker than
// linearizability: two reads overlapping one write may see its new value
// and then the old one.
//
// A pending write (End == hist.Pending, e.g. its writer crashed
// mid-operation) never completes before a read; it overlaps every read
// that ends after it begins, so its value is allowed there. Pending reads
// returned no value and are skipped.
func CheckRegular(h hist.History, init int) error {
	var writes hist.History
	for _, op := range h {
		if op.Inv.Op == types.OpWrite {
			writes = append(writes, op)
		}
	}
	for _, rd := range h {
		if rd.Inv.Op == types.OpWrite || !rd.Complete() {
			continue
		}
		latestEnd, latest := -1, init
		overlapping := false
		for _, w := range writes {
			switch {
			case w.Precedes(rd):
				if w.End > latestEnd {
					latestEnd, latest = w.End, w.Inv.A
				}
			case w.Begin < rd.End:
				overlapping = overlapping || w.Inv.A == rd.Resp.Val
			}
		}
		if rd.Resp.Val != latest && !overlapping {
			return fmt.Errorf("%w: read %v (latest preceding write %d): %v", ErrNotRegular, rd, latest, h)
		}
	}
	return nil
}
