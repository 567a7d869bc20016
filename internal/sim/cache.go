// Package sim implements a trace-driven cache-hierarchy simulator that
// stands in for the Sniper runs of the paper: it replays synthetic
// per-benchmark address streams (internal/trace) through the Table I memory
// hierarchy (32 KiB L1D, 512 KiB L2, shared 16 MiB 16-way LLC) and reports
// per-level read/write/miss counts, from which per-benchmark LLC traffic
// rates (reads/s and writes/s under continuous operation at 5 GHz) are
// extrapolated exactly as the paper does with Sniper statistics.
//
// Each cache level is one flat []uint64 of sets × ways packed line words
// (tag<<2 | dirty<<1 | valid), every set kept in most-recently-used order,
// so a lookup and the fill after its miss are one scan of one set and LRU
// needs no timestamps. The counters are bit-identical to a timestamp-LRU
// model, which reference_test.go keeps as the oracle.
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
	if c.BlockBytes < 1<<tagShift {
		// A packed line word keeps its two state bits below the tag, so
		// at least two address bits must fall below the tag.
		return fmt.Errorf("sim: %s: block size must be at least %d bytes", c.Name, 1<<tagShift)
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

// Line packing: each way is one uint64 word, tag<<2 | dirty<<1 | valid.
// An all-zero word is an invalid way.
const (
	validBit = 1
	dirtyBit = 2
	tagShift = 2
)

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement. All sets live in one flat slice of packed words, Ways per
// set, and each set is kept in most-recently-used order with its valid
// words first: a hit moves its word to the front, a fill shifts the set
// right by one and takes the front, and the word that falls off the end
// of a full set is the LRU victim. Position in the set is the LRU order,
// so no timestamps are stored.
type Cache struct {
	cfg       CacheConfig
	words     []uint64
	ways      int
	blockBits uint // log2(BlockBytes)
	setBits   uint // log2(sets)
	setMask   uint64
	stats     Stats
}

// NewCache builds an empty cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg:       cfg,
		words:     make([]uint64, cfg.Sets()*cfg.Ways),
		ways:      cfg.Ways,
		blockBits: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setBits:   uint(bits.TrailingZeros(uint(cfg.Sets()))),
		setMask:   uint64(cfg.Sets() - 1),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// locate returns the address's set (as a slice of its ways), its set
// index, and the valid, clean word that would hold it.
func (c *Cache) locate(addr uint64) (ways []uint64, set, word uint64) {
	blk := addr >> c.blockBits
	set = blk & c.setMask
	base := int(set) * c.ways
	return c.words[base : base+c.ways : base+c.ways], set, blk>>c.setBits<<tagShift | validBit
}

// Access is one demand lookup: a hit moves the line to the front of its
// set (marking it dirty on a write); a miss installs it there
// (write-allocate) in the same pass and returns the evicted victim's
// address and whether it was dirty, needing a writeback to the level
// below. Counters are updated either way.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victimAddr uint64, wb bool) {
	var dirty uint64
	if write {
		c.stats.Writes++
		dirty = dirtyBit
	} else {
		c.stats.Reads++
	}
	ways, set, word := c.locate(addr)
	// One pass searches the set and shifts every word it passes one way
	// right: a hit then moves its word into the freed front, and a miss
	// has already installed the new word there and carries out the last
	// one — an empty way, or the LRU victim of a full set.
	carry := word | dirty
	for i, w := range ways {
		ways[i] = carry
		if w&^dirtyBit == word {
			ways[0] = w | dirty
			return true, 0, false
		}
		carry = w
		if w == 0 {
			break // valid words come first: the rest are empty too
		}
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	victimAddr, wb = c.evicted(carry, set)
	return false, victimAddr, wb
}

// Fill installs an absent address without a demand lookup (the
// prefetcher's path, after Contains reported it missing). It returns the
// evicted victim's address and whether that victim was dirty.
func (c *Cache) Fill(addr uint64, write bool) (victimAddr uint64, wb bool) {
	ways, set, word := c.locate(addr)
	if write {
		word |= dirtyBit
	}
	last := ways[len(ways)-1]
	copy(ways[1:], ways)
	ways[0] = word
	return c.evicted(last, set)
}

// evicted accounts for a word shifted out of a set: a dirty victim is
// counted and its address rebuilt from its tag and the set index.
func (c *Cache) evicted(w, set uint64) (victimAddr uint64, wb bool) {
	if w&(validBit|dirtyBit) != validBit|dirtyBit {
		return 0, false
	}
	c.stats.Writebacks++
	return (w>>tagShift<<c.setBits | set) << c.blockBits, true
}

// Contains probes for the address without touching statistics or LRU
// order (used by prefetchers to avoid redundant fills).
func (c *Cache) Contains(addr uint64) bool {
	ways, _, word := c.locate(addr)
	for _, w := range ways {
		if w&^dirtyBit == word {
			return true
		}
		if w == 0 {
			return false
		}
	}
	return false
}
