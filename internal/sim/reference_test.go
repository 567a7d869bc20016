package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"coldtall/internal/trace"
)

// This file holds the reference cache model the packed MRU kernel must
// reproduce: the original timestamp-LRU implementation, one 24-byte line
// struct per way, a clock bumped on every lookup and fill, and a separate
// victim scan on a miss. It is deliberately naive — it exists only as the
// oracle of TestCacheMatchesReference and FuzzCacheMatchesReference.

// refLine is one cache line's metadata.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// refCache is a set-associative, write-back, write-allocate cache with
// timestamp LRU replacement.
type refCache struct {
	cfg      CacheConfig
	sets     [][]refLine
	setShift uint
	setMask  uint64
	clock    uint64
	stats    Stats
}

func newRefCache(cfg CacheConfig) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]refLine, cfg.Sets())
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	return &refCache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:  uint64(cfg.Sets() - 1),
	}, nil
}

func (c *refCache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> bits.TrailingZeros64(c.setMask+1)
}

// lookup probes for the address; on a hit it updates LRU state and, for
// writes, marks the line dirty. Counters are updated either way.
func (c *refCache) lookup(addr uint64, write bool) bool {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	set, tag := c.index(addr)
	c.clock++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.used = c.clock
			if write {
				l.dirty = true
			}
			return true
		}
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return false
}

// fill installs the address after a miss: the first invalid way, else the
// least recently used one. It returns the dirty victim's address.
func (c *refCache) fill(addr uint64, write bool) (victimAddr uint64, wb bool) {
	set, tag := c.index(addr)
	c.clock++
	victim := 0
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if !l.valid {
			victim = i
			break
		}
		if l.used < c.sets[set][victim].used {
			victim = i
		}
	}
	v := &c.sets[set][victim]
	if v.valid && v.dirty {
		wb = true
		victimAddr = ((v.tag << bits.TrailingZeros64(c.setMask+1)) | uint64(set)) << c.setShift
		c.stats.Writebacks++
	}
	*v = refLine{tag: tag, valid: true, dirty: write, used: c.clock}
	return victimAddr, wb
}

func (c *refCache) contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// refHierarchy is Hierarchy over refCache levels, with the original
// lookup-then-fill access order.
type refHierarchy struct {
	cfg        HierarchyConfig
	levels     []*refCache
	memReads   uint64
	memWrites  uint64
	prefetches uint64
}

func newRefHierarchy(cfg HierarchyConfig) (*refHierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &refHierarchy{cfg: cfg}
	for i, lc := range cfg.Levels {
		if i == len(cfg.Levels)-1 && cfg.SharedCopies > 1 {
			lc.SizeBytes /= cfg.SharedCopies
		}
		c, err := newRefCache(lc)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

func (h *refHierarchy) access(a trace.Access) {
	h.accessLevel(0, a.Addr, a.Write)
	if h.cfg.NextLinePrefetch && len(h.levels) > 1 {
		next := a.Addr + uint64(h.levels[1].cfg.BlockBytes)
		if !h.levels[1].contains(next) {
			h.prefetches++
			h.accessLevel(2, next, false)
			if victim, wb := h.levels[1].fill(next, false); wb {
				h.accessLevel(2, victim, true)
			}
		}
	}
}

func (h *refHierarchy) accessLevel(i int, addr uint64, write bool) {
	if i == len(h.levels) {
		if write {
			h.memWrites++
		} else {
			h.memReads++
		}
		return
	}
	c := h.levels[i]
	if c.lookup(addr, write) {
		return
	}
	h.accessLevel(i+1, addr, false)
	if victim, wb := c.fill(addr, write); wb {
		h.accessLevel(i+1, victim, true)
	}
}

func (h *refHierarchy) snapshot() HierarchyStats {
	s := HierarchyStats{
		Names:      make([]string, len(h.levels)),
		Levels:     make([]Stats, len(h.levels)),
		MemReads:   h.memReads,
		MemWrites:  h.memWrites,
		Prefetches: h.prefetches,
	}
	for i, c := range h.levels {
		s.Names[i] = c.cfg.Name
		s.Levels[i] = c.stats
	}
	s.Accesses = s.Levels[0].Accesses()
	return s
}

// referenceShapes are the hierarchies the packed kernel is checked
// against the reference on: Table I as shipped, with a private LLC, with
// the next-line prefetcher, and small odd shapes — direct-mapped, 2- and
// 4-way, single-set levels and mixed block sizes — where every set
// overflows constantly.
func referenceShapes() map[string]HierarchyConfig {
	private := TableIConfig()
	private.SharedCopies = 1
	prefetch := TableIConfig()
	prefetch.NextLinePrefetch = true
	return map[string]HierarchyConfig{
		"tableI":   TableIConfig(),
		"private":  private,
		"prefetch": prefetch,
		"small-1-2-4way": {Levels: []CacheConfig{
			{Name: "L1D", SizeBytes: 512, BlockBytes: 64, Ways: 1},
			{Name: "L2", SizeBytes: 2048, BlockBytes: 64, Ways: 2},
			{Name: "LLC", SizeBytes: 8192, BlockBytes: 64, Ways: 4},
		}, SharedCopies: 2, NextLinePrefetch: true},
		"single-set": {Levels: []CacheConfig{
			{Name: "L1D", SizeBytes: 2 * 64, BlockBytes: 64, Ways: 2},
			{Name: "L2", SizeBytes: 4 * 64, BlockBytes: 64, Ways: 4},
			{Name: "LLC", SizeBytes: 8 * 64, BlockBytes: 64, Ways: 8},
		}, SharedCopies: 1},
		"mixed-blocks": {Levels: []CacheConfig{
			{Name: "L1D", SizeBytes: 1024, BlockBytes: 32, Ways: 2},
			{Name: "L2", SizeBytes: 4096, BlockBytes: 64, Ways: 4},
		}, SharedCopies: 1, NextLinePrefetch: true},
	}
}

// referenceStreams builds seeded zipf, stream, chase and mixture streams
// over regions of the given size, so the same shapes see hot sets, pure
// misses, random reuse and their interleaving.
func referenceStreams(t testing.TB, region uint64, n int) map[string][]trace.Access {
	t.Helper()
	gens := func() (zipf, stream, chase trace.Generator) {
		var err error
		if zipf, err = trace.NewZipf(trace.Region{Base: 0, Size: region}, 1.1, 0.3, 21); err != nil {
			t.Fatal(err)
		}
		if stream, err = trace.NewStream(trace.Region{Base: 1 << 32, Size: region}, 1, 0.4, 22); err != nil {
			t.Fatal(err)
		}
		if chase, err = trace.NewPointerChase(trace.Region{Base: 1 << 40, Size: region / 2}, 0.2, 23); err != nil {
			t.Fatal(err)
		}
		return zipf, stream, chase
	}
	out := map[string][]trace.Access{}
	zipf, stream, chase := gens()
	out["zipf"] = trace.Collect(zipf, n)
	out["stream"] = trace.Collect(stream, n)
	out["chase"] = trace.Collect(chase, n)
	zipf, stream, chase = gens()
	mix, err := trace.NewMixture([]trace.Generator{zipf, stream, chase}, []float64{2, 1, 1}, 24)
	if err != nil {
		t.Fatal(err)
	}
	out["mixture"] = trace.Collect(mix, n)
	return out
}

// replayBoth runs accesses through the packed kernel and the reference
// and reports any difference in the snapshots.
func replayBoth(t testing.TB, cfg HierarchyConfig, accesses []trace.Access) (got, want HierarchyStats) {
	t.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accesses {
		h.Access(a)
		ref.access(a)
	}
	return h.Snapshot(), ref.snapshot()
}

// TestCacheMatchesReference pins the packed MRU kernel to the
// timestamp-LRU reference: every level's Stats plus the memory reads,
// writes and prefetches, on every shape and stream.
func TestCacheMatchesReference(t *testing.T) {
	n := 300000
	if testing.Short() {
		n = 60000
	}
	for name, cfg := range referenceShapes() {
		region := uint64(48 << 20)
		if cfg.Levels[len(cfg.Levels)-1].SizeBytes < 1<<20 {
			region = 64 << 10
		}
		for stream, accesses := range referenceStreams(t, region, n) {
			got, want := replayBoth(t, cfg, accesses)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: packed kernel diverged from the reference:\n got %+v\nwant %+v", name, stream, got, want)
			}
		}
	}
}

// FuzzCacheMatchesReference fuzzes the hierarchy shape and the address
// and write sequence. Each level is one byte (block size, set count and
// ways), the LLC is shared by 1, 2 or 4 copies, and accesses are two-byte
// offsets from base with the low bit as the write flag; invalid shapes
// are skipped.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0x14, 0x25, 0x36}, uint8(1), false, uint64(0), []byte("\x00\x01\x10\x11\x20\x21\x00\x40\x01\x80"))
	f.Add([]byte{0x00}, uint8(1), true, ^uint64(0)-1<<20, []byte("\xff\xfe\x00\x00\x7f\x7e\xff\xff"))
	f.Add([]byte{0x41, 0x42}, uint8(2), true, uint64(1)<<62, []byte("\x10\x00\x20\x01\x30\x00\x10\x01"))
	f.Fuzz(func(t *testing.T, shape []byte, copies uint8, prefetch bool, base uint64, ops []byte) {
		if len(shape) == 0 || len(shape) > 4 {
			t.Skip()
		}
		cfg := HierarchyConfig{SharedCopies: 1 << (copies % 3), NextLinePrefetch: prefetch}
		for i, b := range shape {
			block := 4 << (b >> 6)        // 4..32 B
			sets := 1 << (b >> 3 & 7 % 5) // 1..16 sets
			ways := 1 << (b & 7 % 4)      // 1..8 ways
			cfg.Levels = append(cfg.Levels, CacheConfig{
				Name: fmt.Sprintf("L%d", i), SizeBytes: block * sets * ways, BlockBytes: block, Ways: ways,
			})
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		accesses := make([]trace.Access, 0, len(ops)/2)
		for i := 0; i+1 < len(ops); i += 2 {
			v := uint64(ops[i]) | uint64(ops[i+1])<<8
			accesses = append(accesses, trace.Access{Addr: base + v>>1<<2, Write: v&1 == 1})
		}
		got, want := replayBoth(t, cfg, accesses)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %+v: packed kernel diverged:\n got %+v\nwant %+v", cfg, got, want)
		}
	})
}
