// Command benchledger keeps the committed perf ledger (BENCH_<n>.json): it
// folds coldbench run records into one entry per workload under a label,
// and compares two labels.
//
//	go run ./scripts/benchledger add -ledger BENCH_17.json -label change .bench_build/out/serve-*.json
//	go run ./scripts/benchledger compare -ledger BENCH_17.json -base parent -head change
//
// add reads each record's result line, environment and digest. An entry
// keeps, per metric, the median and quartiles over the untraced runs
// (end-to-end metrics) and over the traced runs (per-layer metrics), the
// digest of every seed and trace mode, and the run and failure counts. It
// replaces any entry with the same label and workload.
//
// compare fails (exit status 1) when, on a workload both labels measured,
// a deterministic counter regressed, a digest differs, or the head label
// has failed operations. It prints every end-to-end metric's change
// against its BENCHMARK.json bound, marking the ones beyond it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// gated are the deterministic counters compare fails on. Allocation
// counts are compared in whole allocations per operation, as
// testing.AllocsPerRun reports them: a runtime allocation that lands in a
// few of thousands of measured calls (2 → 2.0002 between identical runs)
// is not a regression.
var gated = []string{
	"array.optimize_allocs",
	"array.characterized_per_optimize",
	"array.prune_rate",
	"cache.allocs_per_hit",
	"server.allocs_per_hit",
	"store.puts",
}

// runRecord is the part of a coldbench run record the ledger reads.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Env      struct {
		Nproc        int    `json:"nproc"`
		GOMAXPROCS   int    `json:"gomaxprocs"`
		GoVersion    string `json:"go_version"`
		CPUModel     string `json:"cpu_model"`
		Kernel       string `json:"kernel"`
		Commit       string `json:"commit"`
		SourceSHA256 string `json:"source_sha256"`
	} `json:"env"`
	Digest struct {
		Sum string `json:"sum"`
	} `json:"digest"`
	Result struct {
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// Env is the machine an entry was measured on.
type Env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

// Stat summarizes one metric over runs.
type Stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// Entry is one label's measurement of one workload.
type Entry struct {
	Label        string  `json:"label"`
	Workload     string  `json:"workload"`
	Commit       string  `json:"commit,omitempty"`
	SourceSHA256 string  `json:"source_sha256"`
	Env          Env     `json:"env"`
	Seeds        []int64 `json:"seeds"`
	Runs         int     `json:"runs"`
	TracedRuns   int     `json:"traced_runs"`
	Attempted    int64   `json:"attempted"`
	Failed       int64   `json:"failed"`
	// Digests maps "seed<n>-trace<0|1>" to the digest every such run
	// printed.
	Digests map[string]string `json:"digests"`
	// Metrics come from the untraced runs, Layers from the traced ones.
	Metrics map[string]Stat `json:"metrics"`
	Layers  map[string]Stat `json:"layers,omitempty"`
}

// Ledger is the committed file.
type Ledger struct {
	Entries []Entry `json:"entries"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchledger add|compare [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "add":
		err = runAdd(os.Args[2:])
	case "compare":
		var ok bool
		ok, err = runCompare(os.Args[2:], os.Stdout)
		if err == nil && !ok {
			os.Exit(1)
		}
	default:
		err = fmt.Errorf("unknown subcommand %q (want add or compare)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchledger:", err)
		os.Exit(2)
	}
}

func runAdd(args []string) error {
	fs := flag.NewFlagSet("add", flag.ContinueOnError)
	path := fs.String("ledger", "", "ledger file to create or update")
	label := fs.String("label", "", "label of the code the records measured (e.g. parent, change)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" || *label == "" || fs.NArg() == 0 {
		return errors.New("add needs -ledger, -label and at least one run record")
	}
	var recs []runRecord
	for _, name := range fs.Args() {
		raw, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var r runRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if r.Workload == "" {
			return fmt.Errorf("%s: not a coldbench run record", name)
		}
		recs = append(recs, r)
	}
	entries, err := fold(*label, recs)
	if err != nil {
		return err
	}
	led, err := readLedger(*path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, e := range entries {
		led.Entries = slices.DeleteFunc(led.Entries, func(o Entry) bool { return o.Label == e.Label && o.Workload == e.Workload })
		led.Entries = append(led.Entries, e)
	}
	sort.SliceStable(led.Entries, func(i, j int) bool {
		a, b := led.Entries[i], led.Entries[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Label < b.Label
	})
	out, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*path, append(out, '\n'), 0o644)
}

// fold groups records by workload into entries. Records of one workload
// must come from one source tree and agree on every digest.
func fold(label string, recs []runRecord) ([]Entry, error) {
	byWorkload := map[string][]runRecord{}
	for _, r := range recs {
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	var entries []Entry
	for _, w := range sortedKeys(byWorkload) {
		rs := byWorkload[w]
		first := rs[0]
		e := Entry{
			Label: label, Workload: w, Commit: first.Env.Commit, SourceSHA256: first.Env.SourceSHA256,
			Env: Env{
				Nproc: first.Env.Nproc, GOMAXPROCS: first.Env.GOMAXPROCS, GoVersion: first.Env.GoVersion,
				CPUModel: first.Env.CPUModel, Kernel: first.Env.Kernel,
			},
			Digests: map[string]string{},
		}
		metrics, layers := map[string][]float64{}, map[string][]float64{}
		units := map[string]string{}
		for _, r := range rs {
			if r.Env.SourceSHA256 != e.SourceSHA256 {
				return nil, fmt.Errorf("%s: records from two source trees (%.12s, %.12s)", w, e.SourceSHA256, r.Env.SourceSHA256)
			}
			key := fmt.Sprintf("seed%d-trace%d", r.Seed, boolInt(r.Trace))
			if d, ok := e.Digests[key]; ok && d != r.Digest.Sum {
				return nil, fmt.Errorf("%s %s: runs disagree on the digest (%.12s, %.12s)", w, key, d, r.Digest.Sum)
			}
			e.Digests[key] = r.Digest.Sum
			if !slices.Contains(e.Seeds, r.Seed) {
				e.Seeds = append(e.Seeds, r.Seed)
			}
			e.Attempted += r.Result.Attempted
			e.Failed += r.Result.Failed
			dst := metrics
			if r.Trace {
				e.TracedRuns++
				dst = layers
			} else {
				e.Runs++
			}
			for name, m := range r.Result.Metrics {
				dst[name] = append(dst[name], m.Value)
				units[name] = m.Unit
			}
		}
		slices.Sort(e.Seeds)
		e.Metrics = summarize(metrics, units)
		if len(layers) > 0 {
			e.Layers = summarize(layers, units)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

func summarize(vals map[string][]float64, units map[string]string) map[string]Stat {
	out := make(map[string]Stat, len(vals))
	for name, v := range vals {
		q1, med, q3 := quartiles(v)
		out[name] = Stat{Median: med, Q1: q1, Q3: q3, N: len(v), Unit: units[name]}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method (Python's statistics.quantiles(v, n=4)); with fewer
// than two values every quartile is the value itself.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1) // 1-based
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func runCompare(args []string, w io.Writer) (bool, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	path := fs.String("ledger", "", "ledger file")
	base := fs.String("base", "parent", "label compared against")
	head := fs.String("head", "change", "label under test")
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration (metric directions and bounds)")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	led, err := readLedger(*path)
	if err != nil {
		return false, err
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", *specPath, err)
	}
	better := map[string]string{}
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	ok, compared := true, 0
	for _, h := range led.Entries {
		if h.Label != *head {
			continue
		}
		i := slices.IndexFunc(led.Entries, func(e Entry) bool { return e.Label == *base && e.Workload == h.Workload })
		if i < 0 {
			fmt.Fprintf(w, "%s: no %s entry to compare with\n", h.Workload, *base)
			continue
		}
		b := led.Entries[i]
		compared++
		fmt.Fprintf(w, "%s: %s (%d runs, %d traced) against %s (%d runs, %d traced)\n", h.Workload, *head, h.Runs, h.TracedRuns, *base, b.Runs, b.TracedRuns)
		if h.Failed > 0 {
			ok = false
			fmt.Fprintf(w, "  FAIL %d of %d operations failed\n", h.Failed, h.Attempted)
		}
		for _, key := range sortedKeys(h.Digests) {
			if d, shared := b.Digests[key]; shared && d != h.Digests[key] {
				ok = false
				fmt.Fprintf(w, "  FAIL digest %s differs: %.12s → %.12s\n", key, d, h.Digests[key])
			}
		}
		for _, m := range spec.EndToEnd {
			bs, okb := b.Metrics[m.Name]
			hs, okh := h.Metrics[m.Name]
			if !okb || !okh || bs.Median == 0 {
				continue
			}
			worse := hs.Median/bs.Median - 1
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = "  OVER BOUND"
			}
			fmt.Fprintf(w, "  %-14s %10.4g → %10.4g %s  %+6.1f%% (bound %.0f%%, %s quartile spread %.3f)%s\n",
				m.Name, bs.Median, hs.Median, hs.Unit, 100*(hs.Median/bs.Median-1), 100*m.Bound, *base, (bs.Q3-bs.Q1)/bs.Median, mark)
		}
		for _, name := range gated {
			bs, okb := b.Layers[name]
			hs, okh := h.Layers[name]
			if !okb || !okh {
				fmt.Fprintf(w, "  %-34s not measured by both (run --trace 1)\n", name)
				continue
			}
			bv, hv := bs.Median, hs.Median
			if strings.Contains(name, "allocs") {
				bv, hv = math.Round(bv), math.Round(hv)
			}
			regressed := hv > bv
			if better[name] == "higher" {
				regressed = hv < bv
			}
			verdict := "ok"
			if regressed {
				ok = false
				verdict = "FAIL regressed"
			}
			fmt.Fprintf(w, "  %-34s %10.4g → %10.4g  %s\n", name, bs.Median, hs.Median, verdict)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("%s: no workload has both a %s and a %s entry", *path, *base, *head)
	}
	return ok, nil
}

func readLedger(path string) (Ledger, error) {
	var led Ledger
	raw, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		return led, err
	}
	if err := json.Unmarshal(raw, &led); err != nil {
		return led, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
