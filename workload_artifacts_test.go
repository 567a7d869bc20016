package coldtall

import (
	"bytes"
	"encoding/csv"
	"slices"
	"strings"
	"testing"

	"coldtall/internal/workload"
)

// TestWorkloadArtifactMatchesFullArtifact pins the restriction property:
// rendering a traffic artifact for one static benchmark must produce
// exactly that benchmark's CSV lines from the full artifact, same header,
// same formatting, same row order.
func TestWorkloadArtifactMatchesFullArtifact(t *testing.T) {
	s := NewStudy()
	for _, tc := range []struct{ artifact, bench string }{
		{"fig5", "leela"},
		{"fig7", "leela"},
		{"coldtall", BandRepresentatives()[1]},
	} {
		t.Run(tc.artifact, func(t *testing.T) {
			restricted, err := s.WorkloadArtifactTable(tc.artifact, tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			full, err := s.ArtifactTable(tc.artifact)
			if err != nil {
				t.Fatal(err)
			}
			var got, all bytes.Buffer
			if err := restricted.RenderCSV(&got); err != nil {
				t.Fatal(err)
			}
			if err := full.RenderCSV(&all); err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(all.String(), "\n")
			header, err := csv.NewReader(strings.NewReader(lines[0])).Read()
			if err != nil {
				t.Fatal(err)
			}
			col := slices.Index(header, "benchmark")
			if col < 0 {
				t.Fatalf("%s has no benchmark column: %v", tc.artifact, header)
			}
			want := lines[0]
			n := 0
			for _, line := range lines[1:] {
				if line == "" {
					continue
				}
				rec, err := csv.NewReader(strings.NewReader(line)).Read()
				if err != nil {
					t.Fatal(err)
				}
				if rec[col] == tc.bench {
					want += line
					n++
				}
			}
			if n == 0 {
				t.Fatalf("full %s has no %s rows", tc.artifact, tc.bench)
			}
			if got.String() != want {
				t.Fatalf("restricted %s differs from filtered full %s:\n--- got\n%s--- want\n%s", tc.artifact, tc.artifact, got.String(), want)
			}
			d, _ := Artifacts().Lookup(tc.artifact)
			if wantTitle := d.Title + " [workload: " + tc.bench + "]"; restricted.Title != wantTitle {
				t.Errorf("title = %q, want %q", restricted.Title, wantTitle)
			}
		})
	}
}

// TestWorkloadArtifactCustomWorkload exercises the ingested-workload
// path: a registry entry that exists nowhere in the static table renders
// both a scatter artifact and the cold-and-tall study.
func TestWorkloadArtifactCustomWorkload(t *testing.T) {
	reg := workload.NewRegistry()
	mcf, _ := workload.StaticTrafficFor("mcf")
	src := workload.Source{
		Name: "custom1",
		Kind: workload.SourceTrace,
		Traffic: workload.Traffic{
			Benchmark:    "custom1",
			ReadsPerSec:  mcf.ReadsPerSec * 0.5,
			WritesPerSec: mcf.WritesPerSec * 2,
		},
		Accesses:    100000,
		TraceSHA256: "cafe",
	}
	if err := reg.Add(src); err != nil {
		t.Fatal(err)
	}
	s := NewStudy()
	s.SetWorkloads(reg)

	tab, err := s.WorkloadArtifactTable("fig5", "custom1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+4 {
		t.Fatalf("fig5 for one workload = %d CSV lines, want header + 4 design points:\n%s", len(lines), buf.String())
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, "custom1") {
			t.Fatalf("row does not carry the workload name: %q", line)
		}
	}

	coldtall, err := s.WorkloadArtifactTable("coldtall", "custom1")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := coldtall.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "custom1"); n == 0 {
		t.Fatal("coldtall rows do not reference the custom workload")
	}
}

func TestWorkloadArtifactErrors(t *testing.T) {
	s := NewStudy()
	if _, err := s.WorkloadArtifactTable("fig1", "mcf"); err == nil {
		t.Fatal("fig1 is workload-independent; want an error")
	}
	if _, err := s.WorkloadArtifactTable("nope", "mcf"); err == nil {
		t.Fatal("want unknown-artifact error")
	}
	if _, err := s.WorkloadArtifactTable("fig5", "no-such-workload"); err == nil {
		t.Fatal("want unknown-workload error")
	}
	if !IsTrafficArtifact("fig5") || IsTrafficArtifact("table2") {
		t.Fatal("IsTrafficArtifact misclassifies")
	}
}
