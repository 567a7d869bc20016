//go:build !race

package array

import (
	"testing"

	"coldtall/internal/cell"
	"coldtall/internal/stack"
)

// optimizeAllocBudget caps the allocations of one organization search at a
// temperature the process has already used. The candidate walk itself
// (feasibility, bound, H-tree, sort) must allocate nothing: what remains is
// the staging slices, the family memo's bookkeeping and the one or two full
// characterizations, a count that does not grow with the 875 candidates.
const optimizeAllocBudget = 64

// TestOptimizeAllocations pins the allocation win. Race instrumentation
// changes allocation counts, hence the build tag.
func TestOptimizeAllocations(t *testing.T) {
	cfg := DefaultLLC(cell.NewSRAM6T(), 350, stack.Planar())
	if _, err := Optimize(cfg); err != nil { // fills the resistivity memo
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Optimize(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > optimizeAllocBudget {
		t.Errorf("Optimize made %.0f allocations per run, budget %d", allocs, optimizeAllocBudget)
	}
	t.Logf("Optimize: %.0f allocations per run", allocs)
}
