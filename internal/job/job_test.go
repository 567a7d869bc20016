package job

import (
	"testing"

	"coldtall"
	"coldtall/internal/explorer"
)

// TestSpecCostPinned pins Spec.Cost, the number of design-point
// evaluations a tenant budget is charged for a spec, for every registry
// artifact and each request shape. The artifact counts come from
// coldtall.ArtifactPoints (its points plus the 350 K SRAM baseline, deduped);
// artifacts with no enumerable grid cost one. TestSpecCostCoversBuild ties
// these to the work each build really does.
func TestSpecCostPinned(t *testing.T) {
	artifactCost := map[string]int{
		"fig1":        8,
		"fig3":        16,
		"fig4":        16,
		"fig5":        4,
		"fig6":        28,
		"fig7":        28,
		"table1":      1,
		"table2":      18,
		"cooling":     2,
		"coldtall":    16,
		"reliability": 6,
		"gaincell":    22,
		"deepcryo":    19,
		"freqsweep":   10,
		"wlsig":       1,
	}
	descs := coldtall.Artifacts().Descriptors()
	if len(descs) != len(artifactCost) {
		t.Errorf("registry has %d artifacts, pin table has %d", len(descs), len(artifactCost))
	}
	for _, d := range descs {
		want, ok := artifactCost[d.Name]
		if !ok {
			t.Errorf("artifact %q has no pinned cost", d.Name)
			continue
		}
		if got := (Spec{Kind: KindArtifact, Artifact: d.Name}).Cost(); got != want {
			t.Errorf("artifact %q: Cost() = %d, want %d", d.Name, got, want)
		}
	}

	points := []explorer.PointSpec{
		{Cell: "SRAM"},
		{Cell: "3T-eDRAM", TemperatureK: 77},
		{Cell: "PCM", Dies: 8},
	}
	for _, tc := range []struct {
		name string
		spec Spec
		want int
	}{
		{"workload-restricted artifact", Spec{Kind: KindArtifact, Artifact: "fig5", Workload: "mcf"}, 4},
		{"explicit sweep", Spec{Kind: KindSweep, Points: points, Benchmarks: []string{"mcf", "namd"}}, 6},
		{"all-benchmark sweep", Spec{Kind: KindSweep, Points: points}, 3 * 23},
		{"characterize", Spec{Kind: KindCharacterize, Points: points[:1]}, 1},
	} {
		if got := tc.spec.Cost(); got != tc.want {
			t.Errorf("%s: Cost() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSpecCostCoversBuild: a tenant is charged at least the optimizer
// calls an artifact's cold build makes — Spec.Cost never under-counts the
// characterizations a request can trigger.
func TestSpecCostCoversBuild(t *testing.T) {
	for _, d := range coldtall.Artifacts().Descriptors() {
		study := coldtall.NewStudy()
		study.SetParallelism(1)
		if _, err := study.ArtifactTable(d.Name); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		calls := study.Explorer().OptimizeCalls()
		if cost := (Spec{Kind: KindArtifact, Artifact: d.Name}).Cost(); int64(cost) < int64(calls) {
			t.Errorf("artifact %q: Cost() = %d, but a cold serial build ran the optimizer %d times", d.Name, cost, calls)
		}
	}
}
