package explorer

import (
	"sync"
	"testing"

	"coldtall/internal/array"
	"coldtall/internal/cryo"
	"coldtall/internal/workload"
)

// fakeStore is an in-memory ResultStore double.
type fakeStore struct {
	mu    sync.Mutex
	m     map[string]array.Result
	loads int
	saves int
}

func newFakeStore() *fakeStore { return &fakeStore{m: make(map[string]array.Result)} }

func (f *fakeStore) Load(key string) (array.Result, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	r, ok := f.m[key]
	return r, ok
}

func (f *fakeStore) Save(key string, r array.Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	f.m[key] = r
}

// TestPersistenceWriteThrough: a characterization miss lands in the store,
// and a fresh explorer over the same store re-serves it without running
// the optimizer — the restart story at the explorer level.
func TestPersistenceWriteThrough(t *testing.T) {
	st := newFakeStore()
	e := New()
	e.SetPersistence(st)
	p := Baseline()
	want, err := e.Characterize(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.saves != 1 {
		t.Errorf("store saves = %d, want 1", st.saves)
	}
	if got := e.OptimizeCalls(); got != 1 {
		t.Fatalf("OptimizeCalls = %d, want 1", got)
	}

	// "Restart": a brand-new explorer with a cold in-memory cache.
	e2 := New()
	e2.SetPersistence(st)
	got, err := e2.Characterize(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("persisted characterization diverged from the original")
	}
	if n := e2.OptimizeCalls(); n != 0 {
		t.Errorf("restarted explorer re-ran Optimize %d times; want the store to serve it", n)
	}
	// The persisted hit is promoted: a second call is a pure cache hit.
	loadsBefore := st.loads
	if _, err := e2.Characterize(p); err != nil {
		t.Fatal(err)
	}
	if st.loads != loadsBefore {
		t.Errorf("promoted characterization still read the store (%d -> %d loads)", loadsBefore, st.loads)
	}
}

// TestWithCoolingSharedCache: explorers derived via WithCoolingShared share
// one characterization memory — the fix for the cooling-sweep cache bypass,
// where every cooler class paid for its own private optimizations.
func TestWithCoolingSharedCache(t *testing.T) {
	e := New()
	p := EDRAMAt(77)
	if _, err := e.Characterize(p); err != nil {
		t.Fatal(err)
	}
	for _, cls := range cryo.Classes() {
		derived, err := e.WithCoolingShared(cryo.Cooling{Class: cls, ThresholdK: 200})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := derived.Characterize(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.OptimizeCalls(); got != 1 {
		t.Errorf("Optimize ran %d times across %d cooling environments, want 1 (characterization is cooling-independent)",
			got, 1+len(cryo.Classes()))
	}
}

// TestWithCoolingSharedEvaluatesDifferently: sharing the characterization
// cache must not share the cooling model — the same point under different
// cooler classes still reports different total power.
func TestWithCoolingSharedEvaluatesDifferently(t *testing.T) {
	e := New()
	tr, err := workload.StaticTrafficFor(ReferenceBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Evaluate(EDRAMAt(77), tr)
	if err != nil {
		t.Fatal(err)
	}
	classes := cryo.Classes()
	// The last class (10 W) has a different overhead than the 100 kW default.
	derived, err := e.WithCoolingShared(cryo.Cooling{Class: classes[len(classes)-1], ThresholdK: 200})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := derived.Evaluate(EDRAMAt(77), tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Array != base.Array {
		t.Error("shared-cache explorers disagreed on the characterization")
	}
	if ev.TotalPower == base.TotalPower {
		t.Error("different cooler classes reported identical total power; cooling model appears shared")
	}
}

// TestCharacterizationCacheBounded: an explorer fed 10k distinct design
// points keeps at most two generations of them in memory, and a point
// evicted from memory comes back from the persistent store without running
// the optimizer again.
func TestCharacterizationCacheBounded(t *testing.T) {
	st := newFakeStore()
	e := New()
	e.SetPersistence(st)
	point := func(i int) DesignPoint {
		p := Baseline()
		p.CapacityBytes = 16<<20 + int64(i)*64
		return p
	}
	want, err := e.Characterize(point(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10_000; i++ {
		e.chars.cache.Put(point(i).Key(), want)
		if n := e.chars.cache.Len(); n > 2*charCacheSize {
			t.Fatalf("after %d points the cache holds %d entries, bound %d", i+1, n, 2*charCacheSize)
		}
	}
	if _, ok := e.chars.cache.Get(point(0).Key()); ok {
		t.Fatal("the first point survived 10k newer points in memory")
	}
	calls := e.OptimizeCalls()
	got, err := e.Characterize(point(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("the evicted point came back different")
	}
	if n := e.OptimizeCalls(); n != calls {
		t.Errorf("re-requesting an evicted point ran the optimizer (%d -> %d calls); want a store hit", calls, n)
	}
}
