// Command coldbench is the coldtall repository's benchmark: one command
// that runs one workload for one seed, checks every output it measures, and
// prints every metric by name with its unit. See README.md in this
// directory for the workloads, the metrics and how to read the traced run.
//
//	go build -o coldtall ./cmd/coldtall
//	coldbench -bin ./coldtall -workload serve -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"setup_s":{"value":…,"unit":"s"},…}}
//
// With -trace 0 the metrics are the end-to-end set (measured with tracing
// off); with -trace 1 they are the per-layer set of the traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Seeds documented for the ledger: DefaultSeed is the one used while
// developing a change; HeldOutSeed is kept for confirming a claim on a
// seed the change was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// runLimit bounds one run, set-up and checks included.
const runLimit = 150 * time.Second

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // coldtall binary built from the checkout under test
	root     string // repository root (goldens live under testdata/golden)
	out      string // span and record files
	tmp      string // parent of every temporary store and export directory
	nproc    int    // client goroutines, connections, GOMAXPROCS, -workers and -job-workers
}

// workloads maps a workload name to its untraced run and its traced run.
var workloads = map[string]struct {
	run   func(ctx context.Context, b *bench) error
	trace func(ctx context.Context, b *bench) error
}{
	"paper":  {runPaper, tracePaper},
	"serve":  {runServe, traceServe},
	"ingest": {runIngest, traceIngest},
}

func main() {
	var cfg config
	var trace int
	var calibration, spawn bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper, serve or ingest")
	flag.Int64Var(&cfg.seed, "seed", DefaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", DefaultSeed, HeldOutSeed))
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.bin, "bin", "", "path to the coldtall binary under test (required)")
	flag.StringVar(&cfg.root, "root", ".", "repository root of the checkout under test")
	flag.BoolVar(&calibration, "calibrate", false, "run the calibration work once and exit (the harness starts itself this way; see calib.go)")
	flag.BoolVar(&spawn, "spawn", false, "run the command after the flags and report its usage on fd 3 (the harness starts itself this way; see child.go)")
	flag.Parse()
	switch {
	case calibration:
		calibrationMain(os.Stdout)
		return
	case spawn:
		spawnMain(flag.Args())
		return
	}

	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fatalf("unknown -workload %q (want paper, serve or ingest)", cfg.workload)
	case cfg.bin == "":
		fatalf("-bin is required")
	case cfg.seconds < 1:
		fatalf("-seconds must be at least 1, got %d", cfg.seconds)
	case trace != 0 && trace != 1:
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		fatalf("%v", err)
	}
	if cfg.bin, err = filepath.Abs(cfg.bin); err != nil {
		fatalf("%v", err)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "testdata", "golden")); err != nil {
		fatalf("no goldens under -root: %v", err)
	}
	cfg.out = filepath.Join(cfg.root, ".bench_build", "out")
	cfg.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.nproc)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	if cfg.tmp, err = os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-"); err != nil {
		fatalf("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// A run must end well inside three minutes; a hung child fails it.
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	b := newBench(cfg)
	if cfg.trace {
		err = w.trace(ctx, b)
	} else {
		err = w.run(ctx, b)
	}
	cancel()
	stop()
	b.closeChildren()
	_ = os.RemoveAll(cfg.tmp)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if err := b.report(os.Stdout); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "coldbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// named is one printed metric, kept with its sample count for the
// human-readable table and the record file.
type named struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is everything one run knows, written to .bench_build/out.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Env      environment       `json:"env"`
	Inputs   string            `json:"inputs_sha256"`
	Digest   digest            `json:"digest"`
	Named    []named           `json:"named"`
	Failures []string          `json:"failures,omitempty"`
	Result   result            `json:"result"`
	Spans    []span            `json:"spans,omitempty"`
	Layers   []layerRow        `json:"layers,omitempty"`
	Extra    map[string]string `json:"extra,omitempty"`
}

// report prints the human-readable lines, writes the record file and
// prints the contract line last.
func (b *bench) report(w *os.File) error {
	res := result{
		Attempted: b.tally.attempted.Load(),
		Failed:    b.tally.failed.Load(),
		Metrics:   b.metrics,
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	inputs, err := inputsDigest(b.cfg.workload, b.cfg.seed, b.cfg.nproc)
	if err != nil {
		return err
	}
	digestSum := b.digest.sum()
	rec := record{
		Workload: b.cfg.workload, Seed: b.cfg.seed, Seconds: b.cfg.seconds, Trace: b.cfg.trace,
		Env: b.env, Inputs: inputs, Digest: b.digest, Named: b.named, Failures: b.tally.messages(),
		Result: res, Extra: b.extra,
	}
	if b.rec != nil {
		rec.Spans = b.rec.snapshot()
		rec.Layers = b.layers
	}

	fmt.Fprintf(w, "coldbench %s seed=%d seconds=%d trace=%v\n", b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace)
	envJSON, _ := json.Marshal(b.env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	fmt.Fprintf(w, "inputs %s\n", inputs)
	fmt.Fprintf(w, "digest %s\n", digestSum)
	for _, n := range b.named {
		fmt.Fprintf(w, "  %-36s %14.6g %-8s n=%d\n", n.Name, n.Value, n.Unit, n.Samples)
	}
	if len(b.layers) > 0 {
		printLayers(w, b.layers)
	}
	for _, k := range sortedKeys(b.extra) {
		fmt.Fprintf(w, "  %s: %s\n", k, b.extra[k])
	}
	for _, m := range rec.Failures {
		fmt.Fprintf(w, "FAIL %s\n", m)
	}
	recJSON, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", b.cfg.workload, b.cfg.seed, boolInt(b.cfg.trace), time.Now().UnixNano())
	path := filepath.Join(b.cfg.out, name)
	if err := os.WriteFile(path, recJSON, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", path)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
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
