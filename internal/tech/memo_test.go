package tech

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"coldtall/internal/parallel"
)

// directResistivity is WireResistivity evaluated without the memo.
func directResistivity(t float64) float64 {
	return wireSizeEffect * (wireResidualRho + blochGruneisenDirect(t))
}

// TestWireResistivityMemoBitIdentical pins the memo to the integral: the
// first (filling) and the repeated (memoized) call at every temperature of
// the 4–400 K quarter-kelvin grid and of 1000 seeded random temperatures
// return exactly the bits a direct evaluation produces.
func TestWireResistivityMemoBitIdentical(t *testing.T) {
	temps := make([]float64, 0, 1585+1000)
	for k := 16; k <= 1600; k++ {
		temps = append(temps, float64(k)/4)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		temps = append(temps, 4+396*rng.Float64())
	}
	for _, temp := range temps {
		want := math.Float64bits(directResistivity(temp))
		first := math.Float64bits(WireResistivity(temp))
		repeat := math.Float64bits(WireResistivity(temp))
		if first != want || repeat != want {
			t.Fatalf("WireResistivity(%v): first %#x, repeat %#x, direct %#x", temp, first, repeat, want)
		}
	}
}

// TestWireResistivityMemoConcurrentFirstUse races first calls at one
// temperature no other test uses, half through WireResistivity and half
// through Node.At; under -race it proves the memo's fill path is
// synchronized, and every caller sees the direct value.
func TestWireResistivityMemoConcurrentFirstUse(t *testing.T) {
	const temp = 123.456789
	want := math.Float64bits(directResistivity(temp))
	const callers = 8
	got := make([]uint64, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(callers)
	for i := range got {
		go func() {
			defer wg.Done()
			start.Wait()
			if i%2 == 0 {
				got[i] = math.Float64bits(WireResistivity(temp))
				return
			}
			c, err := Node22HP().At(temp)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = math.Float64bits(c.WireRho)
		}()
	}
	start.Done()
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("caller %d: %#x, want %#x", i, g, want)
		}
	}
}

// TestWireResistivityMemoBounded drives 100k distinct temperatures through
// the memo: it must never hold more than two generations of entries. The
// integral costs ~0.2 ms, so the test swaps in a small memo for the
// real-integral leg and drives the full 100k keys through one of the
// production size.
func TestWireResistivityMemoBounded(t *testing.T) {
	big := parallel.NewMemo[uint64, float64](bgMemoSize)
	for i := 0; i < 100_000; i++ {
		big.Put(math.Float64bits(4+396*float64(i)/100_000), float64(i))
		if n := big.Len(); n > 2*bgMemoSize {
			t.Fatalf("after %d temperatures the memo holds %d entries, bound %d", i+1, n, 2*bgMemoSize)
		}
	}

	const small = 16
	saved := bgMemo
	bgMemo = parallel.NewMemo[uint64, float64](small)
	t.Cleanup(func() { bgMemo = saved })
	for i := 0; i < 10*small; i++ {
		temp := 200 + float64(i)/8
		if got, want := WireResistivity(temp), directResistivity(temp); got != want {
			t.Fatalf("WireResistivity(%v) = %v, want %v", temp, got, want)
		}
		if n := bgMemo.Len(); n > 2*small {
			t.Fatalf("after %d temperatures the memo holds %d entries, bound %d", i+1, n, 2*small)
		}
	}
	// Evicted temperatures recompute to the same bits.
	if got, want := WireResistivity(200), directResistivity(200); got != want {
		t.Errorf("evicted temperature: %v, want %v", got, want)
	}
}
