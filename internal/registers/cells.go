package registers

import "sync/atomic"

// writeWindow captures an in-progress write of a RegularBit.
type writeWindow struct {
	old    int32
	new    int32
	active bool
}

// RegularBit simulates a regular (but not atomic) SRSW bit: a read that
// overlaps a write returns either the old or the new value, chosen by the
// Choose function (the adversary). Two reads within the same write window
// may observe new-then-old — the new/old inversion that distinguishes
// regular from atomic registers.
//
// BeginWrite/EndWrite expose the write window so a caller can hold a write
// open deterministically.
type RegularBit struct {
	val    atomic.Int32
	window atomic.Pointer[writeWindow]
	// Choose picks the value returned by a read that overlaps a write:
	// true means the old value. It must be safe for concurrent use.
	Choose func() bool
	// flip alternates choices when no Choose is installed, guaranteeing
	// that both behaviors occur.
	flip atomic.Int32
}

// NewRegularBit returns a regular bit initialized to init. choose may be
// nil, in which case overlapping reads alternate old/new.
func NewRegularBit(init int, choose func() bool) *RegularBit {
	b := &RegularBit{Choose: choose}
	b.val.Store(int32(init & 1))
	return b
}

// Read returns the bit; reads overlapping a write consult the adversary.
func (b *RegularBit) Read() int {
	if w := b.window.Load(); w != nil && w.active {
		if b.chooseOld() {
			return int(w.old)
		}
		return int(w.new)
	}
	return int(b.val.Load())
}

func (b *RegularBit) chooseOld() bool {
	if b.Choose != nil {
		return b.Choose()
	}
	return b.flip.Add(1)%2 == 0
}

// BeginWrite opens a write window: until EndWrite, concurrent reads are
// adversarial.
func (b *RegularBit) BeginWrite(v int) {
	b.window.Store(&writeWindow{old: b.val.Load(), new: int32(v & 1), active: true})
}

// EndWrite installs the pending value and closes the window.
func (b *RegularBit) EndWrite() {
	if w := b.window.Load(); w != nil && w.active {
		b.val.Store(w.new)
		b.window.Store(nil)
	}
}
