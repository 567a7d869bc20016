package array

import (
	"fmt"
	"math"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
)

// Target selects the objective the organization search minimizes.
type Target int

const (
	// OptimizeEDP minimizes energy-delay product (the paper's choice:
	// "array architectures optimized for energy-delay-product").
	OptimizeEDP Target = iota
	// OptimizeLatency minimizes read latency.
	OptimizeLatency
	// OptimizeArea minimizes per-die footprint.
	OptimizeArea
	// OptimizeEnergy minimizes mean access energy.
	OptimizeEnergy
	// OptimizeLeakage minimizes standby power.
	OptimizeLeakage
)

// Config fully describes one memory macro to characterize.
type Config struct {
	// CapacityBytes is the usable data capacity (e.g. 16 MiB).
	CapacityBytes int64
	// BlockBytes is the access granularity (cache line), typically 64.
	BlockBytes int
	// Associativity is carried for documentation/tag sizing; it does not
	// otherwise alter the array model.
	Associativity int
	// Ports is the number of simultaneous access ports (the paper's LLC
	// is dual-port). Extra ports widen cells and load wordlines.
	Ports int
	// ECC adds the 12.5% check-bit overhead when true.
	ECC bool
	// Node is the process technology.
	Node tech.Node
	// Temperature is the operating temperature in kelvin.
	Temperature float64
	// Cell is the bit-cell design point.
	Cell cell.Cell
	// Stack is the 3D integration choice.
	Stack stack.Config
	// Target selects the organization-search objective.
	Target Target
}

// DefaultLLC returns the paper's LLC configuration (Table I): 16 MiB,
// 16-way, 64 B blocks, dual-port, ECC, 22 nm, for the given cell,
// temperature and stacking.
func DefaultLLC(c cell.Cell, temperature float64, s stack.Config) Config {
	return Config{
		CapacityBytes: 16 << 20,
		BlockBytes:    64,
		Associativity: 16,
		Ports:         2,
		ECC:           true,
		Node:          tech.Node22HP(),
		Temperature:   temperature,
		Cell:          c,
		Stack:         s,
		Target:        OptimizeEDP,
	}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("array: capacity must be positive, got %d", c.CapacityBytes)
	}
	if c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("array: block bytes must be a positive power of two, got %d", c.BlockBytes)
	}
	if int64(c.BlockBytes) > c.CapacityBytes {
		return fmt.Errorf("array: block (%d B) exceeds capacity (%d B)", c.BlockBytes, c.CapacityBytes)
	}
	if c.Ports < 1 || c.Ports > 4 {
		return fmt.Errorf("array: ports must be 1-4, got %d", c.Ports)
	}
	if c.Associativity < 1 {
		return fmt.Errorf("array: associativity must be >= 1, got %d", c.Associativity)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if err := tech.ValidateTemperature(c.Temperature); err != nil {
		return err
	}
	if err := c.Cell.Validate(); err != nil {
		return err
	}
	if err := c.Stack.Validate(); err != nil {
		return err
	}
	return nil
}

// totalBits returns the stored bit count including ECC and tag overheads.
func (c *Config) totalBits() float64 {
	bits := float64(c.CapacityBytes) * 8 * tagOverhead
	if c.ECC {
		bits *= eccOverhead
	}
	return bits
}

// blockBits returns the bits moved per access including ECC.
func (c *Config) blockBits() float64 {
	bits := float64(c.BlockBytes) * 8
	if c.ECC {
		bits *= eccOverhead
	}
	return bits
}

// portAreaFactor widens the cell for extra ports.
func (c *Config) portAreaFactor() float64 { return 1 + 0.3*float64(c.Ports-1) }

// portCapFactor adds wordline/bitline loading for extra ports.
func (c *Config) portCapFactor() float64 { return 1 + 0.2*float64(c.Ports-1) }

// Organization describes the internal structure the search explores.
type Organization struct {
	// Banks is the number of independently addressable banks, spread
	// evenly across the stacked dies.
	Banks int
	// Rows and Cols give the mat (subarray) dimensions in cells.
	Rows, Cols int
	// ColumnMux is the number of physical columns sharing one sense
	// amplifier.
	ColumnMux int
}

// String renders the organization compactly.
func (o Organization) String() string {
	return fmt.Sprintf("banks=%d mat=%dx%d mux=%d", o.Banks, o.Rows, o.Cols, o.ColumnMux)
}

// derived holds quantities computed from a Config + Organization pair.
type derived struct {
	totalBits     float64
	blockBits     float64
	totalMats     float64 // across all dies
	matsPerBank   float64
	activatedMats float64 // mats touched per access
	bitsPerMat    float64
	banksPerDie   float64
	totalRows     float64 // wordlines across the whole macro
	saPerMat      float64 // sense amplifiers per mat
	totalSAs      float64
}

// infeasibility names the rule an organization breaks for a config; the
// zero value means the organization is feasible. The search tests every
// candidate against these rules, so the check reports a code and leaves
// the wording to derive, which only callers that show it pay for.
type infeasibility uint8

const (
	feasibleOrg infeasibility = iota
	badBanks
	matTooSmall
	badColumnMux
	fetchTooWide
	bankTooSmall
	tooFewBanks
)

// feasible validates the organization against the config and computes the
// derived quantities. On failure d holds whatever was computed before the
// failing rule, which derive uses to word the error.
func (c *Config) feasible(o Organization) (d derived, why infeasibility) {
	if o.Banks < 1 || o.Banks&(o.Banks-1) != 0 {
		return d, badBanks
	}
	if o.Rows < 16 || o.Cols < 16 {
		return d, matTooSmall
	}
	if o.ColumnMux < 1 || o.ColumnMux > o.Cols {
		return d, badColumnMux
	}
	d.totalBits = c.totalBits()
	d.blockBits = c.blockBits()
	bitsPerSAGroup := float64(o.Cols / o.ColumnMux)
	if bitsPerSAGroup > d.blockBits {
		return d, fetchTooWide
	}
	d.activatedMats = math.Ceil(d.blockBits / bitsPerSAGroup)
	d.bitsPerMat = float64(o.Rows) * float64(o.Cols)
	d.totalMats = math.Ceil(d.totalBits / d.bitsPerMat)
	d.matsPerBank = math.Ceil(d.totalMats / float64(o.Banks))
	if d.activatedMats > d.matsPerBank {
		return d, bankTooSmall
	}
	if o.Banks < c.Stack.Dies {
		return d, tooFewBanks
	}
	d.banksPerDie = float64(o.Banks) / float64(c.Stack.Dies)
	d.totalRows = d.totalMats * float64(o.Rows)
	d.saPerMat = float64(o.Cols) / float64(o.ColumnMux)
	d.totalSAs = d.totalMats * d.saPerMat
	return d, feasibleOrg
}

// derive is feasible with the broken rule worded as an error.
func (c *Config) derive(o Organization) (derived, error) {
	d, why := c.feasible(o)
	switch why {
	case badBanks:
		return d, fmt.Errorf("array: banks must be a positive power of two, got %d", o.Banks)
	case matTooSmall:
		return d, fmt.Errorf("array: mat %dx%d too small", o.Rows, o.Cols)
	case badColumnMux:
		return d, fmt.Errorf("array: column mux %d invalid for %d columns", o.ColumnMux, o.Cols)
	case fetchTooWide:
		return d, fmt.Errorf("array: mat fetch width %.0f exceeds block bits %.0f", float64(o.Cols/o.ColumnMux), d.blockBits)
	case bankTooSmall:
		return d, fmt.Errorf("array: access needs %.0f mats but bank has %.0f", d.activatedMats, d.matsPerBank)
	case tooFewBanks:
		return d, fmt.Errorf("array: %d banks cannot spread across %d dies", o.Banks, c.Stack.Dies)
	}
	return d, nil
}
