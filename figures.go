package coldtall

import (
	"strings"

	"coldtall/internal/cell"
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/parallel"
	"coldtall/internal/tech"
	"coldtall/internal/workload"
)

// Fig1Row is one temperature point of Fig. 1: total LLC power of a
// simulated client CPU running SPEC2017.namd between 77 K and 387 K,
// relative to SRAM at 350 K.
type Fig1Row struct {
	// TemperatureK is the operating temperature.
	TemperatureK float64
	// RelDevicePower is LLC power without cooling, relative to 350 K.
	RelDevicePower float64
	// RelTotalPower includes the 9.65x cryocooler overhead below 200 K.
	RelTotalPower float64
}

// Fig1 regenerates Fig. 1.
func (s *Study) Fig1() ([]Fig1Row, error) {
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	tr, err := s.trafficFor(explorer.ReferenceBenchmark)
	if err != nil {
		return nil, err
	}
	temps := cryo.EffectiveTemperatures()
	return parallel.MapContext(s.context(), len(temps), s.parallelism, func(i int) (Fig1Row, error) {
		ev, err := s.exp.EvaluateContext(s.context(), explorer.SRAMAt(temps[i]), tr)
		if err != nil {
			return Fig1Row{}, err
		}
		rel := explorer.Normalize(ev, base)
		return Fig1Row{
			TemperatureK:   temps[i],
			RelDevicePower: rel.RelDevicePower,
			RelTotalPower:  rel.RelPower,
		}, nil
	})
}

// Fig3Row is one (cell, temperature) point of Fig. 3: array-level
// characterization of 16 MB iso-capacity SRAM and 3T-eDRAM under varying
// temperature, relative to SRAM at 350 K.
type Fig3Row struct {
	// Cell names the technology ("SRAM" or "3T-eDRAM").
	Cell string
	// TemperatureK is the operating temperature.
	TemperatureK float64
	// Array-level ratios vs the 350 K SRAM array.
	RelReadLatency, RelWriteLatency  float64
	RelReadEnergy, RelWriteEnergy    float64
	RelLeakagePower, RelRefreshPower float64
	// RetentionS is the absolute eDRAM retention (Inf for SRAM).
	RetentionS float64
}

// Fig3 regenerates Fig. 3.
func (s *Study) Fig3() ([]Fig3Row, error) {
	baseArr, err := s.exp.CharacterizeContext(s.context(), explorer.Baseline())
	if err != nil {
		return nil, err
	}
	temps := cryo.EffectiveTemperatures()
	mks := []func(float64) explorer.DesignPoint{explorer.SRAMAt, explorer.EDRAMAt}
	// Establish each cell family's organization ranking once before the
	// parallel temperature sweep fans out (see WarmFamiliesContext).
	sweep := make([]explorer.DesignPoint, 0, len(temps)*len(mks))
	for _, temp := range temps {
		for _, mk := range mks {
			sweep = append(sweep, mk(temp))
		}
	}
	if err := s.exp.WarmFamiliesContext(s.context(), sweep); err != nil {
		return nil, err
	}
	return parallel.MapContext(s.context(), len(temps)*len(mks), s.parallelism, func(i int) (Fig3Row, error) {
		temp := temps[i/len(mks)]
		p := mks[i%len(mks)](temp)
		r, err := s.exp.CharacterizeContext(s.context(), p)
		if err != nil {
			return Fig3Row{}, err
		}
		relRefresh := 0.0
		if baseArr.LeakagePower > 0 {
			relRefresh = r.RefreshPower / baseArr.LeakagePower
		}
		return Fig3Row{
			Cell:            p.Cell.Tech.String(),
			TemperatureK:    temp,
			RelReadLatency:  r.ReadLatency / baseArr.ReadLatency,
			RelWriteLatency: r.WriteLatency / baseArr.WriteLatency,
			RelReadEnergy:   r.ReadEnergyPerBit / baseArr.ReadEnergyPerBit,
			RelWriteEnergy:  r.WriteEnergyPerBit / baseArr.WriteEnergyPerBit,
			RelLeakagePower: r.LeakagePower / baseArr.LeakagePower,
			RelRefreshPower: relRefresh,
			RetentionS:      r.Retention,
		}, nil
	})
}

// Fig4Row is one (benchmark, cell) group of Fig. 4: total LLC power at
// 350 K, at 77 K, and at 77 K including cooling, relative to 350 K SRAM
// running namd.
type Fig4Row struct {
	Benchmark string
	Cell      string
	// Relative total LLC power for the three operating conditions.
	Rel350K, Rel77K, Rel77KCooled float64
}

// Fig4 regenerates Fig. 4 (namd and leela).
func (s *Study) Fig4() ([]Fig4Row, error) {
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	benches := []string{"namd", "leela"}
	mks := []func(float64) explorer.DesignPoint{explorer.SRAMAt, explorer.EDRAMAt}
	return parallel.MapContext(s.context(), len(benches)*len(mks), s.parallelism, func(i int) (Fig4Row, error) {
		bench := benches[i/len(mks)]
		mk := mks[i%len(mks)]
		tr, err := s.trafficFor(bench)
		if err != nil {
			return Fig4Row{}, err
		}
		warm, err := s.exp.EvaluateContext(s.context(), mk(tech.TempHot350), tr)
		if err != nil {
			return Fig4Row{}, err
		}
		cold, err := s.exp.EvaluateContext(s.context(), mk(tech.TempCryo77), tr)
		if err != nil {
			return Fig4Row{}, err
		}
		return Fig4Row{
			Benchmark:    bench,
			Cell:         warm.Point.Cell.Tech.String(),
			Rel350K:      warm.DevicePower / base.TotalPower,
			Rel77K:       cold.DevicePower / base.TotalPower,
			Rel77KCooled: cold.TotalPower / base.TotalPower,
		}, nil
	})
}

// TrafficRow is one (design point, benchmark) point of the Fig. 5 / Fig. 7
// scatter plots: traffic on the X axis, relative power and latency on Y.
type TrafficRow struct {
	// Label names the design point.
	Label string
	// Cell, TemperatureK, Dies identify it.
	Cell         string
	TemperatureK float64
	Dies         int
	// Benchmark and its traffic rates.
	Benchmark    string
	ReadsPerSec  float64
	WritesPerSec float64
	// RelDevicePower and RelTotalPower are vs 350 K SRAM running namd
	// (the paper's reference normalization); RelLatency likewise.
	RelDevicePower float64
	RelTotalPower  float64
	RelLatency     float64
	// Slowdown is the paper's performance check: relative total latency
	// above 1 versus 350 K SRAM on the same benchmark, or bandwidth
	// shortfall.
	Slowdown bool
}

// Fig5 regenerates Fig. 5: SRAM and 3T-eDRAM at 77 K and 350 K across the
// full SPECrate 2017 suite.
func (s *Study) Fig5() ([]TrafficRow, error) {
	return s.trafficStudy(fig5Points())
}

// fig5Points is the Fig. 5 design-point set (volatile cells at both
// operating temperatures), shared with the distributed grid planner.
func fig5Points() []explorer.DesignPoint {
	return []explorer.DesignPoint{
		explorer.SRAMAt(tech.TempHot350), explorer.EDRAMAt(tech.TempHot350),
		explorer.SRAMAt(tech.TempCryo77), explorer.EDRAMAt(tech.TempCryo77),
	}
}

// Fig7 regenerates Fig. 7: the 2D/3D eNVM sweep (SRAM, PCM, STT-RAM, RRAM;
// optimistic and pessimistic; 1-8 dies) at 350 K across the suite.
func (s *Study) Fig7() ([]TrafficRow, error) {
	points, err := explorer.ENVMSweep()
	if err != nil {
		return nil, err
	}
	return s.trafficStudy(points)
}

// trafficStudy evaluates points across the whole static suite (or only
// the study's restricted workload), normalized to the namd/350 K-SRAM
// baseline. The points×benchmarks grid fans out through the explorer's
// worker pool; rows keep the serial order (each point's benchmarks
// ascending by read rate).
func (s *Study) trafficStudy(points []explorer.DesignPoint) ([]TrafficRow, error) {
	traffics := workload.SortedByReads()
	if s.only != "" {
		tr, err := s.trafficFor(s.only)
		if err != nil {
			return nil, err
		}
		traffics = []workload.Traffic{tr}
	}
	base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	grid, err := s.exp.EvaluateAllContext(s.context(), points, traffics)
	if err != nil {
		return nil, err
	}
	rows := make([]TrafficRow, 0, len(points)*len(traffics))
	for i, p := range points {
		for j, tr := range traffics {
			ev := grid[i][j]
			rel := explorer.Normalize(ev, base)
			rows = append(rows, TrafficRow{
				Label:          p.Label,
				Cell:           p.Cell.Tech.String(),
				TemperatureK:   p.Temperature,
				Dies:           p.Dies,
				Benchmark:      tr.Benchmark,
				ReadsPerSec:    tr.ReadsPerSec,
				WritesPerSec:   tr.WritesPerSec,
				RelDevicePower: rel.RelDevicePower,
				RelTotalPower:  rel.RelPower,
				RelLatency:     rel.RelLatency,
				Slowdown:       ev.Slowdown,
			})
		}
	}
	return rows, nil
}

// Fig6Row is one design point of Fig. 6: array-level characterization of 2D
// and 3D eNVMs at 350 K relative to 16 MB 2D SRAM.
type Fig6Row struct {
	// Label names the point ("8-die PCM (optimistic)").
	Label  string
	Tech   string
	Corner string
	Dies   int
	// Array-level ratios vs the 1-die 350 K SRAM array.
	RelArea                         float64
	RelReadEnergy, RelWriteEnergy   float64
	RelReadLatency, RelWriteLatency float64
	RelLeakagePower                 float64
}

// Fig6 regenerates Fig. 6.
func (s *Study) Fig6() ([]Fig6Row, error) {
	baseArr, err := s.exp.CharacterizeContext(s.context(), explorer.Baseline())
	if err != nil {
		return nil, err
	}
	points, err := explorer.ENVMSweep()
	if err != nil {
		return nil, err
	}
	// Establish each eNVM family's organization ranking once before the
	// parallel layer sweep fans out (see WarmFamiliesContext).
	if err := s.exp.WarmFamiliesContext(s.context(), points); err != nil {
		return nil, err
	}
	return parallel.MapContext(s.context(), len(points), s.parallelism, func(i int) (Fig6Row, error) {
		p := points[i]
		r, err := s.exp.CharacterizeContext(s.context(), p)
		if err != nil {
			return Fig6Row{}, err
		}
		// Corner is encoded in the tentpole cell name suffix; SRAM has
		// no tentpole corner.
		corner := ""
		if p.Cell.Tech != cell.SRAM {
			switch {
			case strings.HasSuffix(p.Cell.Name, cell.Pessimistic.String()):
				corner = cell.Pessimistic.String()
			case strings.HasSuffix(p.Cell.Name, cell.Optimistic.String()):
				corner = cell.Optimistic.String()
			}
		}
		return Fig6Row{
			Label:           p.Label,
			Tech:            p.Cell.Tech.String(),
			Corner:          corner,
			Dies:            p.Dies,
			RelArea:         r.FootprintM2 / baseArr.FootprintM2,
			RelReadEnergy:   r.ReadEnergyPerBit / baseArr.ReadEnergyPerBit,
			RelWriteEnergy:  r.WriteEnergyPerBit / baseArr.WriteEnergyPerBit,
			RelReadLatency:  r.ReadLatency / baseArr.ReadLatency,
			RelWriteLatency: r.WriteLatency / baseArr.WriteLatency,
			RelLeakagePower: r.LeakagePower / baseArr.LeakagePower,
		}, nil
	})
}
