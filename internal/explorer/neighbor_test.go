package explorer

import (
	"context"
	"testing"

	"coldtall/internal/workload"
)

// sweepPoints builds a deliberately interleaved grid: two families (SRAM
// and 3T-eDRAM) alternating across temperatures and die counts, the way
// the figure sweeps enumerate them.
func sweepPoints() []DesignPoint {
	var pts []DesignPoint
	for _, temp := range []float64{350, 77, 227} {
		for _, dies := range []int{1, 4, 2} {
			pts = append(pts, SRAMAt(temp).withDies(dies), EDRAMAt(temp).withDies(dies))
		}
	}
	return pts
}

func (p DesignPoint) withDies(dies int) DesignPoint {
	p.Dies = dies
	return p
}

// TestSweepOrderIsPermutation asserts the neighbor-aware dispatch order is
// a valid permutation of the grid cells: dropping or double-dispatching a
// cell would silently corrupt the sweep.
func TestSweepOrderIsPermutation(t *testing.T) {
	pts := sweepPoints()
	for _, cols := range []int{1, 3} {
		order := sweepOrder(pts, cols)
		n := len(pts) * cols
		if len(order) != n {
			t.Fatalf("cols=%d: order has %d entries, want %d", cols, len(order), n)
		}
		seen := make([]bool, n)
		for _, c := range order {
			if c < 0 || c >= n {
				t.Fatalf("cols=%d: cell %d out of range", cols, c)
			}
			if seen[c] {
				t.Fatalf("cols=%d: cell %d dispatched twice", cols, c)
			}
			seen[c] = true
		}
	}
}

// TestSweepOrderGroupsFamilies asserts each characterization family is
// dispatched contiguously with members ordered by (dies, temperature) —
// the property that keeps the array layer's ranking memo warm between
// neighboring design points.
func TestSweepOrderGroupsFamilies(t *testing.T) {
	pts := sweepPoints()
	cols := 2
	order := sweepOrder(pts, cols)
	seenFamily := map[string]bool{}
	last := ""
	var lastPoint *DesignPoint
	for _, c := range order {
		p := pts[c/cols]
		k := familyKey(p)
		if k != last {
			if seenFamily[k] {
				t.Fatalf("family %q dispatched non-contiguously", k)
			}
			seenFamily[k] = true
			last = k
			lastPoint = nil
		}
		if lastPoint != nil && lastPoint.Key() != p.Key() {
			if p.Dies < lastPoint.Dies ||
				(p.Dies == lastPoint.Dies && p.Temperature < lastPoint.Temperature) {
				t.Fatalf("family %q not ordered by (dies, temperature): %s before %s", k, lastPoint.Label, p.Label)
			}
		}
		cp := p
		lastPoint = &cp
	}
}

// TestEvaluateAllMatchesSerialWalk pins the reordering contract: the
// neighbor-aware dispatch must land every cell at its input position, so
// the grid equals the naive serial walk cell for cell.
func TestEvaluateAllMatchesSerialWalk(t *testing.T) {
	pts := []DesignPoint{SRAMAt(350), EDRAMAt(77), SRAMAt(77), EDRAMAt(350)}
	traffics := []workload.Traffic{
		{ReadsPerSec: 1e8, WritesPerSec: 4e7},
		{ReadsPerSec: 2e9, WritesPerSec: 9e8},
	}
	e := New()
	got, err := e.EvaluateAllContext(context.Background(), pts, traffics)
	if err != nil {
		t.Fatalf("EvaluateAll: %v", err)
	}
	want := make([][]Evaluation, len(pts))
	for i, p := range pts {
		want[i] = make([]Evaluation, len(traffics))
		for j, tr := range traffics {
			ev, err := e.Evaluate(p, tr)
			if err != nil {
				t.Fatalf("Evaluate(%s): %v", p.Label, err)
			}
			want[i][j] = ev
		}
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("cell [%d][%d] differs from serial walk:\ngrid:   %+v\nserial: %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
