package coldtall

import (
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
	"coldtall/internal/tech"
)

// ArtifactPoints returns the design points an artifact's render path
// characterizes, so the cluster layer can fan the expensive array
// optimizations out to workers before the (cheap) render runs locally.
//
// The enumeration is best-effort and affects scheduling only, never
// results: a point listed here is pre-characterized remotely and seeded
// into the explorer cache; a point the render needs but the list misses is
// simply characterized locally, and results are identical either way
// (array.OptimizeContext is deterministic — the pruned/exhaustive
// differential pins it). Artifacts without an enumerable grid return nil
// and render entirely locally.
func ArtifactPoints(name string) []explorer.DesignPoint {
	var pts []explorer.DesignPoint
	switch name {
	case "fig1":
		for _, t := range cryo.EffectiveTemperatures() {
			pts = append(pts, explorer.SRAMAt(t))
		}
	case "fig3", "fig4":
		pts = explorer.CryoSweep(cryo.EffectiveTemperatures())
	case "fig5":
		pts = fig5Points()
	case "fig6", "fig7":
		envm, err := explorer.ENVMSweep()
		if err != nil {
			return nil
		}
		pts = envm
	case "table2":
		cands, err := explorer.TableIICandidates()
		if err != nil {
			return nil
		}
		pts = cands
	case "cooling":
		pts = []explorer.DesignPoint{explorer.EDRAMAt(tech.TempCryo77)}
	default:
		return nil
	}
	// Every artifact normalizes against (or slowdown-checks through) the
	// 350 K SRAM baseline; include it so a cold cluster run never falls
	// back to a local optimizer call for the denominator.
	pts = append(pts, explorer.Baseline())
	seen := make(map[string]bool, len(pts))
	out := pts[:0]
	for _, p := range pts {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}
