package signature

import (
	"math/rand"
	"testing"

	"coldtall/internal/trace"
)

// mapAccumulator is the reference the open-addressed table must match:
// the original Observe over a built-in map from block number to the
// 1-based position of its previous touch.
type mapAccumulator struct {
	sig       Signature
	last      map[uint64]uint64
	prevBlock uint64
	started   bool
}

func (a *mapAccumulator) observe(ac trace.Access) {
	a.sig.Accesses++
	if ac.Write {
		a.sig.Writes++
	} else {
		a.sig.Reads++
	}
	block := ac.Addr >> blockShift
	pos := a.sig.Accesses
	if prev, ok := a.last[block]; ok {
		a.sig.Reuse[logBucket(pos-prev, ReuseBuckets)]++
	} else {
		a.sig.FootprintBlocks++
	}
	a.last[block] = pos
	if a.started {
		delta := block - a.prevBlock
		if block < a.prevBlock {
			delta = a.prevBlock - block
		}
		if delta == 0 {
			a.sig.Stride[0]++
		} else {
			a.sig.Stride[logBucket(delta, StrideBuckets-1)+1]++
		}
	}
	a.prevBlock, a.started = block, true
}

// maxBlockAddr is the address of the largest 64 B block, 2^58 - 1.
const maxBlockAddr = ^uint64(0) &^ (trace.BlockBytes - 1)

// tableStream is a seeded stream that crosses many grow boundaries:
// sequential runs, random blocks over the whole 58-bit block space,
// re-touches of a hot set, and the extreme blocks 0 and 2^58 - 1.
func tableStream(seed int64, n int) []trace.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Access, 0, n)
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = rng.Uint64() &^ (trace.BlockBytes - 1)
	}
	var seq uint64
	for len(out) < n {
		var addr uint64
		switch r := rng.Intn(100); {
		case r < 2:
			addr = 0
		case r < 4:
			addr = maxBlockAddr
		case r < 40:
			seq += trace.BlockBytes
			addr = seq
		case r < 70:
			addr = hot[rng.Intn(len(hot))]
		default:
			addr = rng.Uint64()
		}
		out = append(out, trace.Access{Addr: addr, Write: rng.Intn(4) == 0})
	}
	return out
}

// TestLastTouchMatchesMap requires identical signatures from the table
// and the map reference on streams whose footprints cross several grow
// boundaries, the first and last block included.
func TestLastTouchMatchesMap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		accesses := tableStream(seed, 200000)
		acc := NewAccumulator()
		ref := &mapAccumulator{last: map[uint64]uint64{}}
		for _, a := range accesses {
			acc.Observe(a)
			ref.observe(a)
		}
		if got, want := acc.Signature(), ref.sig; got != want {
			t.Errorf("seed %d: table signature diverged from the map reference:\n got %+v\nwant %+v", seed, got, want)
		}
		if grown := len(acc.last.slots) / initialTouchSlots; grown < 8 {
			t.Errorf("seed %d: table grew only %dx; the stream should cross several grow boundaries", seed, grown)
		}
		if 4*acc.last.used > 3*len(acc.last.slots) {
			t.Errorf("seed %d: table above 3/4 load: %d of %d slots", seed, acc.last.used, len(acc.last.slots))
		}
	}
}

// TestLastTouchRebase drives the table across many 32-bit offset rebases
// against a map of true positions: mostly small position steps, so reuse
// intervals straddle farInterval, with rare 2^30 jumps that force a rebase
// every few jumps. Every previous touch within farInterval must come back
// exact, every older one as a position still at least farInterval back
// (so in the last reuse bucket), and first touches as first touches.
func TestLastTouchRebase(t *testing.T) {
	tab := newLastTouch()
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(5))
	var pos uint64
	rebases := 0
	for step := 0; step < 200000; step++ {
		pos += 1 + uint64(rng.Intn(512))
		if rng.Intn(1000) == 0 {
			pos += 1 << 30
		}
		block := uint64(rng.Intn(1 << 15))
		if step%1000 == 0 {
			block = maxBlockAddr >> blockShift
		}
		base := tab.base
		got, want := tab.swap(block, pos), truth[block]
		if tab.base != base {
			rebases++
		}
		truth[block] = pos
		switch {
		case (got == 0) != (want == 0):
			t.Fatalf("step %d block %d: previous touch %d, want %d", step, block, got, want)
		case want == 0:
		case pos-want < farInterval && got != want:
			t.Fatalf("step %d block %d: recent previous touch %d, want exactly %d", step, block, got, want)
		case pos-want >= farInterval && (got < want || got > pos-farInterval):
			t.Fatalf("step %d block %d: far previous touch came back as %d, want in [%d, %d]", step, block, got, want, pos-farInterval)
		}
		if want != 0 && logBucket(pos-got, ReuseBuckets) != logBucket(pos-want, ReuseBuckets) {
			t.Fatalf("step %d block %d: interval %d lands in another bucket than the true %d", step, block, pos-got, pos-want)
		}
	}
	if rebases < 10 {
		t.Errorf("only %d rebases; the test should cross many", rebases)
	}
}

// TestObserveRepeatsAllocateNothing pins the steady state: re-touching
// blocks already in the table never allocates.
func TestObserveRepeatsAllocateNothing(t *testing.T) {
	acc := NewAccumulator()
	accesses := tableStream(4, 4096)
	for _, a := range accesses {
		acc.Observe(a)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, a := range accesses {
			acc.Observe(a)
		}
	})
	if allocs != 0 {
		t.Errorf("Observe over a repeat-only stream allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkObserve measures the accumulator alone on zipf, stream and
// chase traces, next to the map reference it replaced.
func BenchmarkObserve(b *testing.B) {
	region := trace.Region{Base: 0, Size: 64 << 20}
	zipf, _ := trace.NewZipf(region, 1.1, 0.3, 7)
	stream, _ := trace.NewStream(region, 1, 0.3, 7)
	chase, _ := trace.NewPointerChase(region, 0.3, 7)
	for _, tc := range []struct {
		name string
		g    trace.Generator
	}{{"zipf", zipf}, {"stream", stream}, {"chase", chase}} {
		accesses := trace.Collect(tc.g, 1<<19)
		rate := func(b *testing.B) {
			b.ReportMetric(float64(len(accesses))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
		}
		b.Run(tc.name+"/table", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := NewAccumulator()
				for _, a := range accesses {
					acc.Observe(a)
				}
			}
			rate(b)
		})
		b.Run(tc.name+"/map", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ref := &mapAccumulator{last: map[uint64]uint64{}}
				for _, a := range accesses {
					ref.observe(a)
				}
			}
			rate(b)
		})
	}
}
