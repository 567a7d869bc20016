// Package sim implements a trace-driven cache-hierarchy simulator that
// stands in for the Sniper runs of the paper: it replays synthetic
// per-benchmark address streams (internal/trace) through the Table I memory
// hierarchy (32 KiB L1D, 512 KiB L2, shared 16 MiB 16-way LLC) and reports
// per-level read/write/miss counts, from which per-benchmark LLC traffic
// rates (reads/s and writes/s under continuous operation at 5 GHz) are
// extrapolated exactly as the paper does with Sniper statistics.
package sim

import (
	"fmt"
	"math/bits"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	// Name labels the level in stats output ("L1D", "L2", "LLC").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// BlockBytes is the line size.
	BlockBytes int
	// Ways is the set associativity.
	Ways int
}

// Validate reports structural errors.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("sim: %s: sizes and ways must be positive", c.Name)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("sim: %s: block size must be a power of two", c.Name)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Ways)
	if sets <= 0 {
		return fmt.Errorf("sim: %s: capacity too small for %d ways", c.Name, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("sim: %s: set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Ways) }

// Stats counts the traffic a cache level observed.
type Stats struct {
	// Reads and Writes are lookups by kind (writebacks from the level
	// above count as Writes).
	Reads, Writes uint64
	// ReadMisses and WriteMisses are the misses among them.
	ReadMisses, WriteMisses uint64
	// Writebacks counts dirty evictions leaving this level.
	Writebacks uint64
}

// Accesses returns total lookups.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total misses.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses per lookup (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses())
}

// line is one cache line's metadata.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	cfg      CacheConfig
	sets     [][]line
	setShift uint
	setMask  uint64
	clock    uint64
	stats    Stats
}

// NewCache builds an empty cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]line, cfg.Sets())
	for i := range sets {
		sets[i] = make([]line, cfg.Ways)
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:  uint64(cfg.Sets() - 1),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// index splits an address into set index and tag.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> bits.TrailingZeros64(c.setMask+1)
}

// Lookup probes for the address; on a hit it updates LRU state and, for
// writes, marks the line dirty. Counters are updated either way.
func (c *Cache) Lookup(addr uint64, write bool) bool {
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

// Fill installs the address after a miss (write-allocate). It returns the
// evicted victim's address and whether that victim was dirty (needing a
// writeback to the level below).
func (c *Cache) Fill(addr uint64, write bool) (victimAddr uint64, wb bool) {
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
	*v = line{tag: tag, valid: true, dirty: write, used: c.clock}
	return victimAddr, wb
}

// Contains probes for the address without touching statistics or LRU
// state (used by prefetchers to avoid redundant fills).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}
