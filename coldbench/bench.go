package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// bench is the state of one run: the configuration, the correctness
// tally, the reported metrics and everything recorded beside them.
type bench struct {
	cfg     config
	env     environment
	tally   tally
	digest  digest
	metrics map[string]metric
	named   []named
	extra   map[string]string
	// rec records spans in the traced run; nil when tracing is off.
	rec    *recorder
	root   int // parent span of the calls the workload flow makes
	layers []layerRow

	// gridUsedUp is set when a serve client ran out of never-seen points
	// and ended its closed loop early.
	gridUsedUp atomic.Bool

	mu       sync.Mutex
	children []*child
	pids     map[int]bool
}

func newBench(cfg config) *bench {
	return &bench{
		cfg:     cfg,
		env:     readEnvironment(cfg),
		metrics: map[string]metric{},
		extra:   map[string]string{},
		pids:    map[int]bool{os.Getpid(): true},
	}
}

// set reports one contract metric.
func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// note records one named metric for the printed table and the record,
// with its sample count.
func (b *bench) note(name, unit string, v float64, samples int) {
	b.named = append(b.named, named{Name: name, Value: v, Unit: unit, Samples: samples})
}

// noteDist records a latency distribution as its median and the highest
// percentile that has at least ten samples beyond it.
func (b *bench) noteDist(prefix, unit string, xs []float64) {
	b.note(prefix+"_p50_"+unit, unit, median(xs), len(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		b.note(fmt.Sprintf("%s_p%d_%s", prefix, p, unit), unit, percentile(xs, float64(p)), len(xs))
	}
}

// tally counts operations attempted and operations that failed or
// produced a wrong output (error_rate = failed / attempted).
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	msgs      []string
}

// op counts one operation; ok false counts it failed with the reason.
func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted.Add(1)
	if !ok {
		t.fail(format, args...)
	}
}

// fail counts a failure against an operation already counted.
func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Keep the first few reasons; the count carries the rest.
	if len(t.msgs) < 50 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) errorRate() float64 {
	return float64(b.tally.failed.Load()) / float64(max(1, b.tally.attempted.Load()))
}

func (t *tally) messages() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.msgs...)
}

// digest is the simulated-statistics digest: what the model computed,
// independent of how fast. A speed-only change leaves it identical for a
// given workload and seed.
type digest struct {
	Parts map[string]string `json:"parts"`
	Sum   string            `json:"sum"`
}

func (d *digest) add(key string, v any) {
	if d.Parts == nil {
		d.Parts = map[string]string{}
	}
	d.Parts[key] = fmt.Sprint(v)
}

func (d *digest) sum() string {
	h := sha256.New()
	for _, k := range sortedKeys(d.Parts) {
		fmt.Fprintf(h, "%s=%s\n", k, d.Parts[k])
	}
	d.Sum = hex.EncodeToString(h.Sum(nil))
	return d.Sum
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// environment is stored with every result so numbers from different
// machines are never mixed.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	JobWorkers int    `json:"job_workers"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	// Commit is the VCS revision stamped into the coldtall binary when it
	// was built from a git checkout; SourceSHA256 hashes the Go sources of
	// the checkout, which identifies the code under test either way.
	Commit       string `json:"commit,omitempty"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         int64  `json:"seed"`
}

func readEnvironment(cfg config) environment {
	env := environment{
		Nproc: cfg.nproc, GOMAXPROCS: cfg.nproc, Workers: cfg.nproc, JobWorkers: cfg.nproc, Clients: cfg.nproc,
		GoVersion: runtime.Version(), Seed: cfg.seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if info, err := buildinfo.ReadFile(cfg.bin); err == nil {
		env.GoVersion = info.GoVersion
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	env.SourceSHA256 = sourceHash(cfg.root)
	return env
}

// sourceHash hashes every .go file, go.mod and golden of the program
// (the benchmark's own directory and build outputs excluded), in path order.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".bench_build" || rel == "coldbench" || rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" || strings.HasPrefix(rel, "testdata/golden/") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %s\n", rel, sha(b))
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// Statistics. Every time is kept as a sample; reported values are medians
// (and, where the sample supports it, a tail percentile).

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile p (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailPercentile is the highest of p99, p90 and p75 that has at least ten
// samples beyond it.
func tailPercentile(n int) (int, bool) {
	for _, p := range []int{99, 90, 75} {
		if float64(n)*(100-float64(p))/100 >= 10 {
			return p, true
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
