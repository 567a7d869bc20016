package coldtall

// Per-workload artifact rendering: the traffic-dependent artifacts
// restricted to a single (possibly ingested) workload. This is the
// surface that closes the ingestion loop — a custom trace uploaded to the
// server comes back out as the same Fig. 5 / Fig. 7 / cold-and-tall rows
// the static SPEC suite gets, rendered from the same descriptors with the
// same schemas.

import (
	"fmt"

	"coldtall/internal/report"
)

// TrafficArtifactNames lists the artifacts that can be rendered for a
// single workload: those whose rows are per-benchmark functions of LLC
// traffic. Array-characterization artifacts (fig1, fig3, fig6, ...) are
// workload-independent and stay registry-only.
func TrafficArtifactNames() []string { return []string{"fig5", "fig7", "coldtall"} }

// IsTrafficArtifact reports whether name (registry name, not file name)
// renders per-workload.
func IsTrafficArtifact(name string) bool {
	for _, n := range TrafficArtifactNames() {
		if n == name {
			return true
		}
	}
	return false
}

// WorkloadArtifactTable builds one traffic-dependent artifact restricted
// to a single workload, resolved through the study's registry (so both
// static SPEC names and ingested workloads work). It runs the registry
// descriptor's own Build on a study copy whose benchmark set is just that
// workload, so the schema and row builder are the descriptor's — for a
// static benchmark the rows are byte-identical to that benchmark's rows in
// the full artifact. Only the title gains the workload name.
func (s *Study) WorkloadArtifactTable(artifactName, workloadName string) (*report.Table, error) {
	d, ok := Artifacts().Lookup(artifactName)
	if !ok || !IsTrafficArtifact(d.Name) {
		return nil, fmt.Errorf("coldtall: %q is not a per-workload artifact (want one of %v)", artifactName, TrafficArtifactNames())
	}
	only := *s
	only.only = workloadName
	t := report.NewSchemaTable(fmt.Sprintf("%s [workload: %s]", d.Title, workloadName), d.Columns)
	if err := d.Build(s.context(), &only, t); err != nil {
		return nil, err
	}
	return t, nil
}
