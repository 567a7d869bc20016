package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecord writes a minimal coldbench run record and returns its path.
func writeRecord(t *testing.T, dir, workload, source, digest string, seed int64, trace bool, failed int64, metrics map[string]float64) string {
	t.Helper()
	m := map[string]any{}
	for k, v := range metrics {
		m[k] = map[string]any{"value": v, "unit": "u"}
	}
	rec := map[string]any{
		"workload": workload, "seed": seed, "trace": trace,
		"env":    map[string]any{"nproc": 2, "gomaxprocs": 2, "go_version": "go1.24.0", "source_sha256": source},
		"digest": map[string]any{"sum": digest},
		"result": map[string]any{"attempted": 10, "failed": failed, "metrics": m},
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(dir, workload+"-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("one value: %v %v %v", q1, med, q3)
	}
}

// TestAddAndCompare folds records for two labels and checks compare's
// verdicts: a better head passes; a regressed counter, a changed digest or
// a failed operation fails.
func TestAddAndCompare(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "BENCH.json")
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{
		"end_to_end": [{"name": "cold_cpu_ms", "better": "lower", "bound": 0.25}],
		"per_layer": [{"name": "store.puts", "better": "lower"}, {"name": "array.prune_rate", "better": "higher"}, {"name": "cache.allocs_per_hit", "better": "lower"}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	layers := func(puts, prune, allocs float64) map[string]float64 {
		return map[string]float64{"store.puts": puts, "array.prune_rate": prune, "cache.allocs_per_hit": allocs}
	}
	add := func(label string, paths ...string) {
		t.Helper()
		if err := runAdd(append([]string{"-ledger", ledger, "-label", label}, paths...)); err != nil {
			t.Fatal(err)
		}
	}
	compare := func() (bool, string) {
		t.Helper()
		var out bytes.Buffer
		ok, err := runCompare([]string{"-ledger", ledger, "-benchmark", spec}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return ok, out.String()
	}

	add("parent",
		writeRecord(t, dir, "serve", "p", "d1", 1, false, 0, map[string]float64{"cold_cpu_ms": 2}),
		writeRecord(t, dir, "serve", "p", "d1", 1, false, 0, map[string]float64{"cold_cpu_ms": 2.2}),
		writeRecord(t, dir, "serve", "p", "t1", 1, true, 0, layers(100, 0.99, 2.00016)))
	add("change", // a fractional allocation is noise, not a regression
		writeRecord(t, dir, "serve", "c", "d1", 1, false, 0, map[string]float64{"cold_cpu_ms": 1}),
		writeRecord(t, dir, "serve", "c", "t1", 1, true, 0, layers(100, 0.995, 2.0002)))
	if ok, out := compare(); !ok || !strings.Contains(out, "-52.4%") {
		t.Fatalf("improvement judged a failure or misreported:\n%s", out)
	}
	led, err := readLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Entries) != 2 || led.Entries[1].Label != "parent" || led.Entries[1].Runs != 2 || led.Entries[1].TracedRuns != 1 {
		t.Fatalf("ledger entries = %+v", led.Entries)
	}

	add("change", // re-adding replaces the entry
		writeRecord(t, dir, "serve", "c", "d1", 1, false, 0, map[string]float64{"cold_cpu_ms": 1.5}),
		writeRecord(t, dir, "serve", "c", "t1", 1, true, 0, layers(101, 0.995, 2)))
	if ok, out := compare(); ok || !strings.Contains(out, "store.puts") || !strings.Contains(out, "FAIL regressed") {
		t.Fatalf("a counter regression passed:\n%s", out)
	}

	add("change",
		writeRecord(t, dir, "serve", "c", "d2", 1, false, 0, map[string]float64{"cold_cpu_ms": 1.4}),
		writeRecord(t, dir, "serve", "c", "t1", 1, true, 0, layers(100, 0.99, 2)))
	if ok, out := compare(); ok || !strings.Contains(out, "digest seed1-trace0 differs") {
		t.Fatalf("a digest change passed:\n%s", out)
	}

	add("change",
		writeRecord(t, dir, "serve", "c", "d1", 1, false, 3, map[string]float64{"cold_cpu_ms": 1.3}),
		writeRecord(t, dir, "serve", "c", "t1", 1, true, 0, layers(100, 0.99, 2)))
	if ok, out := compare(); ok || !strings.Contains(out, "operations failed") {
		t.Fatalf("failed operations passed:\n%s", out)
	}
}

// TestAddRejectsMixedRecords: one entry is one source tree with one digest
// per seed and trace mode.
func TestAddRejectsMixedRecords(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "BENCH.json")
	a := writeRecord(t, dir, "paper", "x", "d1", 1, false, 0, map[string]float64{"cold_cpu_ms": 1})
	b := writeRecord(t, dir, "paper", "y", "d1", 1, false, 0, map[string]float64{"cold_cpu_ms": 2})
	c := writeRecord(t, dir, "paper", "x", "d9", 1, false, 0, map[string]float64{"cold_cpu_ms": 3})
	if err := runAdd([]string{"-ledger", ledger, "-label", "l", a, b}); err == nil {
		t.Error("records of two source trees folded into one entry")
	}
	if err := runAdd([]string{"-ledger", ledger, "-label", "l", a, c}); err == nil {
		t.Error("runs with different digests folded into one entry")
	}
}
