package sim

import (
	"testing"
	"testing/quick"

	"coldtall/internal/trace"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache(CacheConfig{Name: "t", SizeBytes: 1024, BlockBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "a", SizeBytes: 0, BlockBytes: 64, Ways: 2},
		{Name: "b", SizeBytes: 1024, BlockBytes: 48, Ways: 2},
		{Name: "c", SizeBytes: 1024, BlockBytes: 64, Ways: 0},
		{Name: "d", SizeBytes: 3 * 64, BlockBytes: 64, Ways: 1}, // 3 sets: not power of two
		{Name: "e", SizeBytes: 64, BlockBytes: 64, Ways: 2},     // capacity < one set
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should fail validation", cfg)
		}
	}
	good := CacheConfig{Name: "LLC", SizeBytes: 16 << 20, BlockBytes: 64, Ways: 16}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.Sets() != 16384 {
		t.Errorf("16MB/16w/64B = %d sets, want 16384", good.Sets())
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := small(t)
	if c.Lookup(0x1000, false) {
		t.Fatal("cold cache should miss")
	}
	c.Fill(0x1000, false)
	if !c.Lookup(0x1000, false) {
		t.Fatal("should hit after fill")
	}
	if !c.Lookup(0x1000+32, false) {
		t.Fatal("same block should hit regardless of offset")
	}
	s := c.Stats()
	if s.Reads != 3 || s.ReadMisses != 1 {
		t.Errorf("stats %+v, want 3 reads 1 miss", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, 8 sets: addresses 0, 8*64, 16*64 map to set 0.
	c := small(t)
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Lookup(a, false)
	c.Fill(a, false)
	c.Lookup(b, false)
	c.Fill(b, false)
	c.Lookup(a, false) // touch a so b is LRU
	c.Lookup(d, false)
	c.Fill(d, false) // evicts b
	if !c.Lookup(a, false) {
		t.Error("a should survive (recently used)")
	}
	if c.Lookup(b, false) {
		t.Error("b should have been evicted (LRU)")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := small(t)
	a, b, d := uint64(0), uint64(8*64), uint64(16*64)
	c.Lookup(a, true)
	c.Fill(a, true) // dirty
	c.Lookup(b, false)
	c.Fill(b, false)
	c.Lookup(d, false)
	victim, wb := c.Fill(d, false) // evicts a (LRU, dirty)
	if !wb {
		t.Fatal("dirty eviction should report a writeback")
	}
	if victim != a {
		t.Errorf("victim address %#x, want %#x", victim, a)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCacheVictimAddressReconstruction(t *testing.T) {
	c := small(t)
	addr := uint64(0x3F40) // arbitrary block-aligned address
	c.Lookup(addr, true)
	c.Fill(addr, true)
	// Fill two more conflicting blocks in the same set to evict it.
	setStride := uint64(8 * 64)
	c.Lookup(addr+setStride, false)
	c.Fill(addr+setStride, false)
	c.Lookup(addr+2*setStride, false)
	victim, wb := c.Fill(addr+2*setStride, false)
	if !wb || victim != addr {
		t.Errorf("victim %#x wb=%v, want %#x true", victim, wb, addr)
	}
}

func TestFlushCountsDirtyLines(t *testing.T) {
	c := small(t)
	c.Lookup(0, true)
	c.Fill(0, true)
	c.Lookup(64*100, false)
	c.Fill(64*100, false)
	if dirty := c.Flush(); dirty != 1 {
		t.Errorf("flush reported %d dirty lines, want 1", dirty)
	}
	if c.Lookup(0, false) {
		t.Error("flush should invalidate lines")
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	cfg := TableIConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Table I config invalid: %v", err)
	}
	bad := TableIConfig()
	bad.SharedCopies = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero copies should fail")
	}
	inverted := TableIConfig()
	inverted.Levels[2].SizeBytes = 1 << 10
	if err := inverted.Validate(); err == nil {
		t.Error("LLC smaller than L2 should fail")
	}
}

func TestHierarchyInclusionOfTraffic(t *testing.T) {
	// A stream bigger than the LLC: every L1 miss flows to L2 and LLC,
	// and LLC misses flow to memory. Read counts must be non-increasing
	// down the hierarchy.
	h, err := NewHierarchy(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := trace.NewStream(trace.Region{Base: 0, Size: 256 << 20}, 1, 0.2, 1)
	h.Run(g, 200000)
	l1, l2, llc := h.LevelStats(0), h.LevelStats(1), h.LLCStats()
	if l1.Accesses() != 200000 {
		t.Errorf("L1 accesses %d, want 200000", l1.Accesses())
	}
	if l2.Reads != l1.Misses() {
		t.Errorf("L2 reads %d should equal L1 misses %d", l2.Reads, l1.Misses())
	}
	if llc.Reads != l2.ReadMisses+l2.WriteMisses {
		t.Errorf("LLC reads %d should equal L2 misses %d", llc.Reads, l2.Misses())
	}
	memR := h.memReads
	if memR != llc.Misses() {
		t.Errorf("memory reads %d should equal LLC misses %d", memR, llc.Misses())
	}
}

func TestSmallWorkingSetStaysInL1(t *testing.T) {
	h, _ := NewHierarchy(TableIConfig())
	// 16 KiB working set fits the 32 KiB L1.
	g, _ := trace.NewPointerChase(trace.Region{Base: 0, Size: 16 << 10}, 0.3, 2)
	h.Run(g, 100000)
	if mr := h.LevelStats(0).MissRate(); mr > 0.01 {
		t.Errorf("L1 miss rate %.4f for resident set, want ~0", mr)
	}
	if llc := h.LLCStats(); llc.Accesses() > 1000 {
		t.Errorf("LLC saw %d accesses for an L1-resident set", llc.Accesses())
	}
}

func TestMidWorkingSetHitsLLC(t *testing.T) {
	h, _ := NewHierarchy(TableIConfig())
	// 1.5 MiB working set: misses L2 (512 KiB) but fits the 2 MiB LLC
	// share.
	g, _ := trace.NewPointerChase(trace.Region{Base: 0, Size: 1536 << 10}, 0.3, 3)
	h.Run(g, 400000)
	llc := h.LLCStats()
	if llc.Accesses() < 10000 {
		t.Errorf("LLC should see traffic, got %d", llc.Accesses())
	}
	if mr := llc.MissRate(); mr > 0.2 {
		t.Errorf("LLC miss rate %.3f for resident set, want low", mr)
	}
}

func TestHugeWorkingSetMissesEverywhere(t *testing.T) {
	h, _ := NewHierarchy(TableIConfig())
	g, _ := trace.NewPointerChase(trace.Region{Base: 0, Size: 512 << 20}, 0.3, 4)
	h.Run(g, 200000)
	llc := h.LLCStats()
	// Demand reads nearly all miss; writebacks from L2 often hit the
	// still-resident line, so judge read misses specifically.
	if mr := float64(llc.ReadMisses) / float64(llc.Reads); mr < 0.85 {
		t.Errorf("LLC read miss rate %.3f for 512 MiB chase, want ~1", mr)
	}
}

func TestSharedCopiesShrinkLLCShare(t *testing.T) {
	// The same 4 MiB working set fits a private 16 MiB LLC but thrashes
	// a 2 MiB per-copy share.
	private := TableIConfig()
	private.SharedCopies = 1
	hPriv, _ := NewHierarchy(private)
	hShared, _ := NewHierarchy(TableIConfig())
	mk := func(seed int64) trace.Generator {
		g, _ := trace.NewPointerChase(trace.Region{Base: 0, Size: 4 << 20}, 0.3, seed)
		return g
	}
	hPriv.Run(mk(5), 300000)
	hShared.Run(mk(5), 300000)
	if hShared.LLCStats().MissRate() <= hPriv.LLCStats().MissRate() {
		t.Error("shared LLC slice should miss more than a private LLC")
	}
}

func TestWritebackTrafficReachesLLC(t *testing.T) {
	h, _ := NewHierarchy(TableIConfig())
	// Write-heavy stream over a 64 MiB region: L2 evicts dirty lines into
	// the LLC continuously.
	g, _ := trace.NewStream(trace.Region{Base: 0, Size: 64 << 20}, 1, 1.0, 6)
	h.Run(g, 300000)
	if w := h.LLCStats().Writes; w == 0 {
		t.Error("LLC should receive writeback traffic")
	}
	if memW := h.memWrites; memW == 0 {
		t.Error("memory should receive LLC writebacks")
	}
}

func TestHierarchyDeterminism(t *testing.T) {
	run := func() Stats {
		h, _ := NewHierarchy(TableIConfig())
		g, _ := trace.NewZipf(trace.Region{Base: 0, Size: 32 << 20}, 1.3, 0.25, 77)
		h.Run(g, 100000)
		return h.LLCStats()
	}
	if run() != run() {
		t.Error("simulation is not deterministic")
	}
}

func TestLevelNames(t *testing.T) {
	h, _ := NewHierarchy(TableIConfig())
	if len(h.levels) != 3 {
		t.Fatalf("levels = %d, want 3", len(h.levels))
	}
	for i, want := range []string{"L1D", "L2", "LLC"} {
		if got := h.levels[i].Config().Name; got != want {
			t.Errorf("level %d = %q, want %q", i, got, want)
		}
	}
}

func TestCacheStatsConservationProperty(t *testing.T) {
	// Property: for any access mix, reads+writes == hits+misses and
	// writebacks never exceed fills (misses).
	f := func(seed int64, n uint16) bool {
		c, _ := NewCache(CacheConfig{Name: "p", SizeBytes: 4096, BlockBytes: 64, Ways: 4})
		g, err := trace.NewPointerChase(trace.Region{Base: 0, Size: 1 << 20}, 0.5, seed)
		if err != nil {
			return false
		}
		for i := 0; i < int(n)%2000+100; i++ {
			a := g.Next()
			if !c.Lookup(a.Addr, a.Write) {
				c.Fill(a.Addr, a.Write)
			}
		}
		s := c.Stats()
		return s.Writebacks <= s.Misses() && s.Misses() <= s.Accesses()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheContainsDoesNotPerturb(t *testing.T) {
	c := small(t)
	c.Lookup(0x1000, false)
	c.Fill(0x1000, false)
	before := c.Stats()
	if !c.Contains(0x1000) || c.Contains(0x2000000) {
		t.Error("Contains gave wrong answers")
	}
	if c.Stats() != before {
		t.Error("Contains must not touch statistics")
	}
}

func TestNextLinePrefetchHelpsStreams(t *testing.T) {
	run := func(prefetch bool) (l2Stats Stats, llcReads, prefetches uint64) {
		cfg := TableIConfig()
		cfg.NextLinePrefetch = prefetch
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A stream too big for L2 but small enough to dodge LLC misses
		// dominating the picture.
		g, _ := trace.NewStream(trace.Region{Base: 0, Size: 1 << 20}, 1, 0, 3)
		h.Run(g, 200000)
		return h.LevelStats(1), h.LLCStats().Reads, h.prefetches
	}
	off, llcOff, pfOff := run(false)
	on, llcOn, pfOn := run(true)
	if pfOff != 0 {
		t.Error("prefetches should be zero when disabled")
	}
	if pfOn == 0 {
		t.Fatal("prefetcher never fired")
	}
	// Demand misses at L2 drop: the stream's next line is already there.
	if on.ReadMisses >= off.ReadMisses {
		t.Errorf("prefetch should cut L2 demand read misses: %d vs %d", on.ReadMisses, off.ReadMisses)
	}
	// Total LLC fills stay in the same ballpark (same blocks, earlier).
	ratio := float64(llcOn) / float64(llcOff)
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("LLC read ratio with prefetch = %.2f, want ~1", ratio)
	}
}

// Flush invalidates every line, returning the number of dirty lines that
// would have been written back.
func (c *Cache) Flush() uint64 {
	var dirty uint64
	for s := range c.sets {
		for i := range c.sets[s] {
			if c.sets[s][i].valid && c.sets[s][i].dirty {
				dirty++
			}
			c.sets[s][i] = line{}
		}
	}
	return dirty
}
