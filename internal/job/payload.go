package job

// Wire payloads. Every request kind's body is encoded by one function
// here, which both the synchronous endpoint and the job of that kind call
// on the values they computed, so the two forms can only differ if the
// computed values do. JSON nulls stand for the model's +Inf "does not
// apply" values (report.FiniteOrNull), the same values the CSV form
// spells "+Inf".

import (
	"encoding/json"
	"strings"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/explorer"
	"coldtall/internal/report"
)

// characterization is the wire form of one design point's array
// characterization: the body of POST /v1/characterize and of a
// characterize job's result.
type characterization struct {
	Point                 string   `json:"point"`
	Key                   string   `json:"key"`
	Organization          string   `json:"organization"`
	ReadLatencyS          float64  `json:"read_latency_s"`
	WriteLatencyS         float64  `json:"write_latency_s"`
	RandomCycleS          float64  `json:"random_cycle_s"`
	ReadEnergyJ           float64  `json:"read_energy_j"`
	WriteEnergyJ          float64  `json:"write_energy_j"`
	LeakageW              float64  `json:"leakage_w"`
	RefreshW              float64  `json:"refresh_w"`
	RetentionS            *float64 `json:"retention_s"` // null when static
	FootprintM2           float64  `json:"footprint_m2"`
	TotalSiliconM2        float64  `json:"total_silicon_m2"`
	ArrayEfficiency       float64  `json:"array_efficiency"`
	BandwidthAccessesPerS float64  `json:"bandwidth_accesses_per_s"`
}

// CharacterizePayload encodes p's characterization r.
func CharacterizePayload(p explorer.DesignPoint, r array.Result) ([]byte, error) {
	return json.Marshal(characterization{
		Point:                 p.Label,
		Key:                   p.Key(),
		Organization:          r.Org.String(),
		ReadLatencyS:          r.ReadLatency,
		WriteLatencyS:         r.WriteLatency,
		RandomCycleS:          r.RandomCycle,
		ReadEnergyJ:           r.ReadEnergy,
		WriteEnergyJ:          r.WriteEnergy,
		LeakageW:              r.LeakagePower,
		RefreshW:              r.RefreshPower,
		RetentionS:            report.FiniteOrNull(r.Retention),
		FootprintM2:           r.FootprintM2,
		TotalSiliconM2:        r.TotalSiliconM2,
		ArrayEfficiency:       r.ArrayEfficiency,
		BandwidthAccessesPerS: r.BandwidthAccesses,
	})
}

// evaluation is the wire form of one (point, benchmark) evaluation: the
// body of POST /v1/evaluate and one row of a sweep.
type evaluation struct {
	Point            string   `json:"point"`
	Benchmark        string   `json:"benchmark"`
	ReadsPerSec      float64  `json:"reads_per_sec"`
	WritesPerSec     float64  `json:"writes_per_sec"`
	DevicePowerW     float64  `json:"device_power_w"`
	CoolingPowerW    float64  `json:"cooling_power_w"`
	TotalPowerW      float64  `json:"total_power_w"`
	AggregateLatency float64  `json:"aggregate_latency"`
	Utilization      float64  `json:"utilization"`
	ContentionFactor float64  `json:"contention_factor"`
	Slowdown         bool     `json:"slowdown"`
	LifetimeYears    *float64 `json:"lifetime_years"` // null when unbounded
}

func evaluationRow(ev explorer.Evaluation) evaluation {
	return evaluation{
		Point:            ev.Point.Label,
		Benchmark:        ev.Traffic.Benchmark,
		ReadsPerSec:      ev.Traffic.ReadsPerSec,
		WritesPerSec:     ev.Traffic.WritesPerSec,
		DevicePowerW:     ev.DevicePower,
		CoolingPowerW:    ev.CoolingPower,
		TotalPowerW:      ev.TotalPower,
		AggregateLatency: ev.AggregateLatency,
		Utilization:      ev.Utilization,
		ContentionFactor: ev.ContentionFactor,
		Slowdown:         ev.Slowdown,
		LifetimeYears:    report.FiniteOrNull(ev.LifetimeYears),
	}
}

// EvaluatePayload encodes one evaluation.
func EvaluatePayload(ev explorer.Evaluation) ([]byte, error) {
	return json.Marshal(evaluationRow(ev))
}

// sweepResult is the wire form of an evaluated grid, rows in row-major
// (point, benchmark) order: the body of POST /v1/sweep and of a sweep
// job's result.
type sweepResult struct {
	Points     int          `json:"points"`
	Benchmarks int          `json:"benchmarks"`
	Rows       []evaluation `json:"rows"`
}

// SweepPayload encodes a points x benchmarks grid (grid[i][j] is point i
// under benchmark j).
func SweepPayload(grid [][]explorer.Evaluation) ([]byte, error) {
	res := sweepResult{Points: len(grid)}
	for _, row := range grid {
		res.Benchmarks = len(row)
		for _, ev := range row {
			res.Rows = append(res.Rows, evaluationRow(ev))
		}
	}
	return json.Marshal(res)
}

// ArtifactTable builds the table an artifact request renders: the
// registry artifact, or with a workload named, the traffic-dependent
// artifact restricted to that workload.
func ArtifactTable(st *coldtall.Study, name, workload string) (*report.Table, error) {
	if workload == "" {
		return st.ArtifactTable(name)
	}
	return st.WorkloadArtifactTable(name, workload)
}

// ArtifactCSV renders an artifact table as its CSV body, the bytes the
// CLI export writes for the same table.
func ArtifactCSV(t *report.Table) ([]byte, error) {
	var b strings.Builder
	if err := t.RenderCSV(&b); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
