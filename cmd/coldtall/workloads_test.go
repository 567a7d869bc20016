package main

// CLI tests for the workloads subcommand family, run against a real server
// on a loopback listener.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coldtall/internal/workload"
)

const ingestSpecJSON = `{
  "name": "cli1",
  "description": "cli upload",
  "generator": {"pattern": "stream", "working_set_bytes": 67108864, "write_frac": 0.25, "accesses": 40000, "seed": 7}
}`

func TestWorkloadsAddListTraffic(t *testing.T) {
	url := startJobServer(t)
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(ingestSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	// add submits the spec, waits for the ingest job, and prints the record.
	var add strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "-poll", "10ms", "add", spec}, &add); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(add.String(), "cli1") || !strings.Contains(add.String(), "profile") {
		t.Errorf("add output %q missing the registered record", add.String())
	}

	// list shows the 23 static entries plus the upload.
	var list strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "list"}, &list); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(list.String()), "\n") + 1
	if want := len(workload.StaticTraffic()) + 1; lines != want {
		t.Errorf("list printed %d lines, want %d", lines, want)
	}
	if !strings.Contains(list.String(), "cli1") {
		t.Errorf("list output missing the ingested workload:\n%s", list.String())
	}

	// traffic prints the derived rates for both ingested and static names.
	var tr strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "traffic", "cli1"}, &tr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reads/s", "writes/s", "accesses  = 40000", "sha256:"} {
		if !strings.Contains(tr.String(), want) {
			t.Errorf("traffic output missing %q:\n%s", want, tr.String())
		}
	}
	tr.Reset()
	if err := run(bg, []string{"workloads", "-server", url, "traffic", "mcf"}, &tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "static") {
		t.Errorf("static traffic output = %q", tr.String())
	}
}

// TestWorkloadsIntelVerbs drives the workload-intelligence verb family —
// sig, similar, distill, rm — through the CLI against a store-backed
// server, including the alias flow a deduplicated re-upload produces.
func TestWorkloadsIntelVerbs(t *testing.T) {
	url := startJobServer(t)
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	add := func(spec string) {
		t.Helper()
		var b strings.Builder
		if err := run(bg, []string{"workloads", "-server", url, "-poll", "10ms", "add", spec}, &b); err != nil {
			t.Fatalf("add %s: %v\n%s", spec, err, b.String())
		}
	}

	// Two byte-identical generator uploads: the second dedups to an alias.
	gen := `"generator": {"pattern": "stream", "working_set_bytes": 67108864, "write_frac": 0.25, "accesses": 40000, "seed": 7}`
	add(write("orig.json", `{"name": "intel1", `+gen+`}`))
	add(write("copy.json", `{"name": "intel2", `+gen+`}`))

	// sig prints the replay-time locality signature; the alias resolves to
	// its canonical workload.
	var sig strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "sig", "intel1"}, &sig); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workload  = intel1", "sha256", "accesses  = 40000", "footprint"} {
		if !strings.Contains(sig.String(), want) {
			t.Errorf("sig output missing %q:\n%s", want, sig.String())
		}
	}
	if strings.Contains(sig.String(), "canonical") {
		t.Errorf("canonical sig output should not mention an alias:\n%s", sig.String())
	}
	sig.Reset()
	if err := run(bg, []string{"workloads", "-server", url, "sig", "intel2"}, &sig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sig.String(), "canonical = intel1 (alias)") {
		t.Errorf("alias sig output missing the canonical resolution:\n%s", sig.String())
	}

	// similar ranks canonical entries only, so the alias does not show up
	// as a spurious zero-distance neighbour.
	var sim strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "similar", "intel1"}, &sim); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sim.String(), "no other workloads") {
		t.Errorf("similar should find no canonical neighbours:\n%s", sim.String())
	}

	// rm refuses the canonical entry while its alias lives, then removes
	// both in dependency order.
	var b strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "rm", "intel1"}, &b); err == nil || !strings.Contains(err.Error(), "intel2") {
		t.Errorf("rm canonical with alias: err = %v", err)
	}
	b.Reset()
	if err := run(bg, []string{"workloads", "-server", url, "rm", "intel2"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "removed intel2 (alias)") {
		t.Errorf("rm alias output = %q", b.String())
	}
	b.Reset()
	if err := run(bg, []string{"workloads", "-server", url, "rm", "intel1"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "removed intel1") {
		t.Errorf("rm canonical output = %q", b.String())
	}

	// distill fits a generator to the stored trace and prints the fit; a
	// profile-derived trace recovers within the pinned tolerance, so the
	// trace bytes are replaced by the spec.
	add(write("prof.json", `{"name": "intel3", "generator": {"profile": "mcf", "accesses": 65536, "seed": 1}}`))
	var dis strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "-poll", "10ms", "distill", "intel3"}, &dis); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workload  = intel3", "accepted  = true", "deleted true", "spec      = {"} {
		if !strings.Contains(dis.String(), want) {
			t.Errorf("distill output missing %q:\n%s", want, dis.String())
		}
	}

	// The intelligence verbs demand a name and surface server refusals.
	for _, verb := range []string{"sig", "similar", "distill", "rm"} {
		if err := run(bg, []string{"workloads", "-server", url, verb}, &b); err == nil || !strings.Contains(err.Error(), "name is required") {
			t.Errorf("%s without a name: err = %v", verb, err)
		}
	}
	if err := run(bg, []string{"workloads", "-server", url, "rm", "mcf"}, &b); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("rm static: err = %v", err)
	}
	if err := run(bg, []string{"workloads", "-server", url, "sig", "ghost"}, &b); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("sig unknown: err = %v", err)
	}
	if err := run(bg, []string{"workloads", "-server", url, "distill", "ghost"}, &b); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("distill unknown: err = %v", err)
	}
}

func TestWorkloadsErrors(t *testing.T) {
	url := startJobServer(t)

	// add demands a spec argument; traffic demands a name.
	var b strings.Builder
	if err := run(bg, []string{"workloads", "-server", url, "add"}, &b); err == nil || !strings.Contains(err.Error(), "spec file") {
		t.Errorf("add without a spec: err = %v", err)
	}
	if err := run(bg, []string{"workloads", "-server", url, "traffic"}, &b); err == nil || !strings.Contains(err.Error(), "name is required") {
		t.Errorf("traffic without a name: err = %v", err)
	}

	// unknown verb names itself
	if err := run(bg, []string{"workloads", "-server", url, "frobnicate"}, &b); err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Errorf("unknown verb: err = %v", err)
	}

	// unknown workload surfaces the server's 404
	if err := run(bg, []string{"workloads", "-server", url, "traffic", "ghost"}, &b); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown workload: err = %v", err)
	}

	// a reserved static name is rejected at submit (server 400)
	spec := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(spec, []byte(`{"name":"mcf","generator":{"pattern":"stream","working_set_bytes":1048576,"accesses":5000}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bg, []string{"workloads", "-server", url, "add", spec}, &b); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("reserved name: err = %v", err)
	}
}
