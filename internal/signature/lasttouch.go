package signature

import (
	"math"
	"math/bits"
)

// farInterval is the shortest reuse interval the histogram's last bucket
// absorbs: every interval of at least 2^(ReuseBuckets-1) accesses lands
// there, so beyond it only "at least this far" matters.
const farInterval = 1 << (ReuseBuckets - 1)

// lastTouch maps block numbers to the access position of their latest
// touch, the state behind the reuse histogram. It is an open-addressed
// table with linear probing over a power-of-two slot count, doubled once
// more than three quarters of the slots are used. A 12-byte slot holds the
// key block+1 as two 32-bit halves (zero marks an empty slot; a block
// number is an address shifted right by 6, so block+1 cannot overflow)
// and the position as a 32-bit offset from base.
//
// When an offset would overflow, rebase moves base to farInterval+1
// accesses behind the current position and clamps every older offset to
// 1. An interval measured from a clamped position is still at least
// farInterval, the bucket of the true interval, and every younger
// interval stays exact, so signatures are exact at any stream length.
type lastTouch struct {
	slots []touchSlot
	used  int
	shift uint   // 64 - log2(len(slots)): the hash keeps the top bits
	base  uint64 // a position is stored as pos - base
}

type touchSlot struct{ lo, hi, off uint32 }

// initialTouchSlots sizes a fresh table (12 KiB); streams with larger
// footprints double it as they go.
const initialTouchSlots = 1 << 10

func newLastTouch() lastTouch {
	return lastTouch{
		slots: make([]touchSlot, initialTouchSlots),
		shift: uint(64 - bits.TrailingZeros(initialTouchSlots)),
	}
}

// home is key's first probe slot: a Fibonacci (multiplicative) hash, so
// the runs of consecutive blocks a stream touches spread across the table.
func (t *lastTouch) home(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> t.shift }

// swap records pos as block's latest touch and returns the previous one,
// or 0 when this is the block's first touch. Positions must increase from
// call to call. A previous touch more than farInterval back may come back
// as a later position that is still at least farInterval back.
func (t *lastTouch) swap(block, pos uint64) uint64 {
	if pos-t.base > math.MaxUint32 {
		t.rebase(pos)
	}
	key := block + 1
	lo, hi, off := uint32(key), uint32(key>>32), uint32(pos-t.base)
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.lo == lo && s.hi == hi {
			prev := t.base + uint64(s.off)
			s.off = off
			return prev
		}
		if s.lo|s.hi == 0 {
			*s = touchSlot{lo, hi, off}
			t.used++
			if 4*t.used > 3*len(t.slots) {
				t.grow()
			}
			return 0
		}
	}
}

// grow doubles the table and reinserts every occupied slot.
func (t *lastTouch) grow() {
	old := t.slots
	t.slots = make([]touchSlot, 2*len(old))
	t.shift--
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.lo|s.hi == 0 {
			continue
		}
		i := t.home(uint64(s.hi)<<32 | uint64(s.lo))
		for t.slots[i].lo|t.slots[i].hi != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// rebase moves base to farInterval+1 accesses behind pos, re-expressing
// younger offsets exactly and clamping older ones to 1.
func (t *lastTouch) rebase(pos uint64) {
	base := pos - farInterval - 1
	for i := range t.slots {
		s := &t.slots[i]
		if s.lo|s.hi == 0 {
			continue
		}
		if at := t.base + uint64(s.off); at > base {
			s.off = uint32(at - base)
		} else {
			s.off = 1
		}
	}
	t.base = base
}
