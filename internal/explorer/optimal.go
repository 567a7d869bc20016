package explorer

import (
	"fmt"
	"sort"

	"coldtall/internal/parallel"
	"coldtall/internal/workload"
)

// Objective is a Table II design target.
type Objective int

const (
	// ObjPower minimizes total LLC power including cooling (the table's
	// "power (100kW cooling)" column).
	ObjPower Objective = iota
	// ObjPerformance minimizes total LLC latency.
	ObjPerformance
	// ObjArea minimizes 2D footprint.
	ObjArea
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case ObjPower:
		return "power"
	case ObjPerformance:
		return "performance"
	case ObjArea:
		return "area"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Objectives returns all Table II columns.
func Objectives() []Objective { return []Objective{ObjPower, ObjPerformance, ObjArea} }

// EnduranceThresholdYears flags technologies whose endurance-limited
// lifetime under a band's traffic falls below an order-of-magnitude margin
// over a server deployment — the concern the paper raises "particularly for
// PCM and RRAM solutions", which triggers the table's "alt" row.
const EnduranceThresholdYears = 50.0

// Choice is one Table II cell: the optimal LLC for a traffic band under a
// design target, with an endurance-safe alternative when the winner wears.
type Choice struct {
	// Band and Objective locate the cell.
	Band      workload.Band
	Objective Objective
	// Representative is the traffic the band was judged at.
	Representative workload.Traffic
	// Winner is the optimal design point and its evaluation.
	Winner Evaluation
	// EnduranceConcern reports whether the winner's lifetime falls below
	// the threshold under this band's write traffic.
	EnduranceConcern bool
	// Alternative is the best endurance-safe option of a different
	// technology; nil when the winner raises no concern.
	Alternative *Evaluation
}

// metric extracts the objective value from an evaluation.
func (o Objective) metric(ev Evaluation) float64 {
	switch o {
	case ObjPerformance:
		return ev.AggregateLatency
	case ObjArea:
		return ev.Array.FootprintM2
	default:
		return ev.TotalPower
	}
}

// OptimalChoice selects the Table II winner for one band and objective,
// judging candidates at the band's representative (highest-traffic)
// benchmark, as the paper summarizes each regime by its most demanding
// members.
func (e *Explorer) OptimalChoice(b workload.Band, obj Objective) (Choice, error) {
	return e.choose(b, obj, func(DesignPoint) bool { return true })
}

// choose ranks the Table II candidates passing keep under one band and
// objective. Candidates are evaluated on the explorer's worker pool;
// ranking runs over the input-ordered results, so the selection matches the
// serial walk exactly.
func (e *Explorer) choose(b workload.Band, obj Objective, keep func(DesignPoint) bool) (Choice, error) {
	rep, err := workload.Representative(b)
	if err != nil {
		return Choice{}, err
	}
	points, err := TableIICandidates()
	if err != nil {
		return Choice{}, err
	}
	kept := points[:0]
	for _, p := range points {
		if keep(p) {
			kept = append(kept, p)
		}
	}
	evals, err := parallel.Map(len(kept), e.Workers, func(i int) (Evaluation, error) {
		return e.Evaluate(kept[i], rep)
	})
	if err != nil {
		return Choice{}, err
	}
	sort.SliceStable(evals, func(i, j int) bool {
		return obj.metric(evals[i]) < obj.metric(evals[j])
	})
	choice := Choice{
		Band:           b,
		Objective:      obj,
		Representative: rep,
		Winner:         evals[0],
	}
	if evals[0].LifetimeYears < EnduranceThresholdYears {
		choice.EnduranceConcern = true
		for i := 1; i < len(evals); i++ {
			alt := evals[i]
			if !altEligible(obj, evals[0], alt) {
				continue
			}
			choice.Alternative = &alt
			break
		}
	}
	return choice, nil
}

// altEligible selects what may stand in for a wear-limited winner. For the
// power target only wear-free (volatile) technologies qualify: an LLC sees
// unbounded write streams, and wear management (write throttling, spare
// provisioning) costs exactly the power the column optimizes — the paper's
// own power alternatives are volatile (77 K 3T-eDRAM, 8-die SRAM). For
// performance and area, any different technology whose lifetime clears the
// threshold qualifies (the paper's area alternative is 3D STT).
func altEligible(obj Objective, winner, alt Evaluation) bool {
	if alt.Point.Cell.Tech == winner.Point.Cell.Tech {
		return false
	}
	if obj == ObjPower {
		return !alt.Point.Cell.Tech.IsNonVolatile()
	}
	return alt.LifetimeYears >= EnduranceThresholdYears
}

// Optimal3DChoice restricts the candidate set to the 350 K planar/stacked
// points (the Destiny-framework family), excluding cryogenic operation.
// The paper's Table II performance column reports winners from this family
// (8-die STT / 8-die PCM); in the unified model rebuilt here, cryogenic
// 3T-eDRAM's latency advantage would otherwise win the low-traffic bands
// (see EXPERIMENTS.md).
func (e *Explorer) Optimal3DChoice(b workload.Band, obj Objective) (Choice, error) {
	return e.choose(b, obj, func(p DesignPoint) bool { return p.Temperature >= 300 })
}
