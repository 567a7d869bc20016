package coldtall

import (
	"fmt"

	"coldtall/internal/cell"
	"coldtall/internal/explorer"
	"coldtall/internal/stack"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// The paper's Section VI proposes two follow-on studies; both are
// implemented here. First, temperature as a continuous design knob (see
// examples/cryo_sweep). Second — "a future interesting work would be to
// combine both 3D stacking with cryogenic computing to achieve both highly
// performant and low power/temperature chips for the broadest range of
// workload traffic patterns" — the ColdAndTall study below.

// ColdAndTallRow is one (cell, dies, temperature) point of the combined
// study evaluated under one benchmark's traffic.
type ColdAndTallRow struct {
	// Label names the design point ("8-die 3T-eDRAM @77K").
	Label        string
	Cell         string
	Dies         int
	TemperatureK float64
	Benchmark    string
	// RelTotalPower (incl. cooling) and RelLatency are vs the 350 K
	// 1-die SRAM baseline on the reference benchmark.
	RelTotalPower float64
	RelLatency    float64
	// RelArea is the per-die footprint vs the baseline.
	RelArea float64
}

// ColdAndTall crosses the volatile technologies (SRAM, 3T-eDRAM — the
// cells that remain functional at 77 K) with stacking degrees 1-8 and both
// operating temperatures, under the given benchmark. The eNVMs stay at
// 350 K: phase-change dynamics and MTJ switching degrade at cryogenic
// temperatures, so the paper's combination question is about cold volatile
// stacks versus warm non-volatile stacks.
func (s *Study) ColdAndTall(benchmark string) ([]ColdAndTallRow, error) {
	tr, err := s.trafficFor(benchmark)
	if err != nil {
		return nil, err
	}
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	points, err := coldTallPoints()
	if err != nil {
		return nil, err
	}
	var rows []ColdAndTallRow
	for _, p := range points {
		ev, err := s.exp.Evaluate(p, tr)
		if err != nil {
			return nil, err
		}
		rel := explorer.Normalize(ev, base)
		rows = append(rows, ColdAndTallRow{
			Label:         p.Label,
			Cell:          p.Cell.Tech.String(),
			Dies:          p.Dies,
			TemperatureK:  p.Temperature,
			Benchmark:     benchmark,
			RelTotalPower: rel.RelPower,
			RelLatency:    rel.RelLatency,
			RelArea:       rel.RelArea,
		})
	}
	return rows, nil
}

// coldTallPoints is ColdAndTall's grid, in row order: each volatile cell at
// 1, 2, 4 and 8 TSV-stacked dies, each at 350 K then 77 K.
func coldTallPoints() ([]explorer.DesignPoint, error) {
	var pts []explorer.DesignPoint
	for _, tc := range []cell.Technology{cell.SRAM, cell.EDRAM3T} {
		c, err := cell.Builtin(tc)
		if err != nil {
			return nil, err
		}
		for _, dies := range []int{1, 2, 4, 8} {
			for _, temp := range []float64{tech.TempHot350, tech.TempCryo77} {
				pts = append(pts, explorer.DesignPoint{
					Label:       fmt.Sprintf("%d-die %s @%.0fK", dies, tc, temp),
					Cell:        c,
					Temperature: temp,
					Dies:        dies,
					Style:       stack.TSVStack,
				})
			}
		}
	}
	return pts, nil
}

// ColdAndTallBest returns, for one benchmark, the combined-study winner by
// total power and by latency, plus the best warm eNVM point for contrast.
type ColdAndTallSummary struct {
	Benchmark string
	// PowerWinner and LatencyWinner come from the cold-and-tall grid.
	PowerWinner, LatencyWinner ColdAndTallRow
	// WarmENVMPower is the best 350 K eNVM total power (relative), for
	// the "cold or tall?" verdict.
	WarmENVMPower float64
	WarmENVMLabel string
}

// ColdAndTallVerdict runs the combined study and answers the title
// question for the benchmark: is the best LLC cold, tall, or both?
func (s *Study) ColdAndTallVerdict(benchmark string) (ColdAndTallSummary, error) {
	rows, err := s.ColdAndTall(benchmark)
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	sum := ColdAndTallSummary{Benchmark: benchmark, PowerWinner: rows[0], LatencyWinner: rows[0]}
	for _, r := range rows[1:] {
		if r.RelTotalPower < sum.PowerWinner.RelTotalPower {
			sum.PowerWinner = r
		}
		if r.RelLatency < sum.LatencyWinner.RelLatency {
			sum.LatencyWinner = r
		}
	}
	// Best warm eNVM for contrast.
	tr, err := s.trafficFor(benchmark)
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	base, err := s.baseline()
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	points, err := explorer.ENVMSweep()
	if err != nil {
		return ColdAndTallSummary{}, err
	}
	best := -1.0
	for _, p := range points {
		if p.Cell.Tech == cell.SRAM {
			continue
		}
		ev, err := s.exp.Evaluate(p, tr)
		if err != nil {
			return ColdAndTallSummary{}, err
		}
		rel := explorer.Normalize(ev, base)
		if best < 0 || rel.RelPower < best {
			best = rel.RelPower
			sum.WarmENVMLabel = p.Label
		}
	}
	sum.WarmENVMPower = best
	return sum, nil
}

// BandRepresentatives returns the benchmark names the combined study
// reports on (one per Table II traffic band).
func BandRepresentatives() []string {
	out := make([]string, 0, 3)
	for _, b := range workload.Bands() {
		if rep, err := workload.Representative(b); err == nil {
			out = append(out, rep.Benchmark)
		}
	}
	return out
}
