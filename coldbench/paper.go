package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/cryo"
	"coldtall/internal/explorer"
)

// The paper workload is the researcher regenerating the paper. One cold
// sample is a fresh `coldtall export` process (all registry artifacts)
// followed by a fresh `coldtall verify` process (the paper's claims): a
// process-global memo must never make a cold sample look warm. The warm
// pass rebuilds every artifact on a primed in-process Study. The paper grid
// is fixed, so the seed is recorded and unused.

// paperClaims is the verify summary line every cold sample must print.
const paperClaims = "21/21 claims reproduced"

// coldShare is the part of the measured seconds spent on cold samples; the
// rest goes to the warm pass.
const coldShare = 0.75

func loadGoldens(root string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, d := range coldtall.Artifacts().Descriptors() {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", d.File))
		if err != nil {
			return nil, err
		}
		out[d.Name] = b
	}
	return out, nil
}

// setupGroups × setupPerGroup fresh `coldtall artifacts` processes time
// the paper workload's set-up, a calibration run on either side of each
// group.
const setupGroups, setupPerGroup = 4, 6

func runPaper(ctx context.Context, b *bench) error {
	goldens, err := loadGoldens(b.cfg.root)
	if err != nil {
		return err
	}
	b.extra["seed"] = "recorded, unused: the paper grid is fixed"
	// The search's prune counts depend on the order the process-global
	// search memo was filled in, so they are taken first, serially, before
	// anything else in this process has searched.
	if err := b.paperPruneDigest(ctx); err != nil {
		return err
	}

	sc := b.newScaler()
	setupWall, setupCPU, err := b.paperSetup(ctx, sc)
	if err != nil {
		return err
	}

	var coldWall, coldRaw, coldCPU, rss []float64
	start := time.Now()
	coldEnd := start.Add(time.Duration(coldShare * float64(b.cfg.seconds) * float64(time.Second)))
	for len(coldWall) == 0 || time.Now().Before(coldEnd) {
		if err := sc.before(ctx); err != nil {
			return err
		}
		wall, u, err := b.paperColdSample(ctx, goldens)
		if err != nil {
			return err
		}
		scale, err := sc.after(ctx)
		if err != nil {
			return err
		}
		coldWall = append(coldWall, ms(wall))
		coldRaw = append(coldRaw, ms(u.cpu))
		coldCPU = append(coldCPU, scale*ms(u.cpu))
		rss = append(rss, u.rssMiB)
	}
	coldPhase := time.Since(start)

	st, warmWall, warmRaw, warmCPU, err := b.paperWarm(ctx, sc, goldens, start.Add(time.Duration(b.cfg.seconds)*time.Second))
	if err != nil {
		return err
	}
	b.set("setup_s", "s", median(setupCPU))
	b.set("peak_rss_mb", "MiB", median(rss))
	b.set("cold_cpu_ms", "ms", median(coldCPU))
	b.set("warm_cpu_ms", "ms", median(warmCPU))
	b.note("setup_cpu_s", "s", median(setupCPU), len(setupCPU))
	b.note("setup_wall_s", "s", median(setupWall), len(setupWall))
	b.note("peak_rss_mb", "MiB", median(rss), len(rss))
	b.note("paper_cold_s", "s", median(coldWall)/1000, len(coldWall))
	b.noteDist("paper_cold", "ms", coldWall)
	b.note("paper_cold_cpu_ms", "ms", median(coldCPU), len(coldCPU))
	b.note("paper_cold_raw_cpu_ms", "ms", median(coldRaw), len(coldRaw))
	b.note("paper_warm_ms", "ms", median(warmWall), len(warmWall))
	b.noteDist("paper_warm", "ms", warmWall)
	b.note("paper_warm_cpu_ms", "ms", median(warmCPU), len(warmCPU))
	b.note("paper_warm_raw_cpu_ms", "ms", median(warmRaw), len(warmRaw))
	b.note("cold_artifacts_per_s", "1/s", float64(len(goldens)*len(coldWall))/coldPhase.Seconds(), len(coldWall))
	sc.note()
	b.note("error_rate", "ratio", b.errorRate(), int(b.tally.attempted.Load()))
	return b.paperDigest(goldens, st)
}

// paperSetup times the paper workload's set-up: what every export and
// verify pays before it can take work, which is process start, package
// initialisation, flag parsing and building the Study. Each sample is a
// fresh `coldtall artifacts` process, which does exactly that and then
// prints the registry catalog. It returns wall seconds and calibrated CPU
// seconds per process.
func (b *bench) paperSetup(ctx context.Context, sc *scaler) (wall, cpu []float64, err error) {
	for g := 0; g < setupGroups; g++ {
		if err := sc.before(ctx); err != nil {
			return nil, nil, err
		}
		var raw []float64
		for i := 0; i < setupPerGroup; i++ {
			out, w, u, err := b.runOnce(ctx, "artifacts")
			if err != nil {
				return nil, nil, err
			}
			b.tally.op(bytes.Contains(out, []byte("Artifact registry")), "coldtall artifacts printed no registry catalog")
			wall = append(wall, w.Seconds())
			raw = append(raw, u.cpu.Seconds())
		}
		scale, err := sc.after(ctx)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range raw {
			cpu = append(cpu, scale*r)
		}
	}
	return wall, cpu, nil
}

// paperColdSample runs one export process and one verify process, each
// fresh, and checks both outputs after the clock stops. It returns the
// summed wall time, the summed CPU time and the larger peak RSS.
func (b *bench) paperColdSample(ctx context.Context, goldens map[string][]byte) (time.Duration, usage, error) {
	dir, err := b.freshDir("export-")
	if err != nil {
		return 0, usage{}, err
	}
	defer os.RemoveAll(dir)
	n := strconv.Itoa(b.cfg.nproc)
	_, we, ue, err := b.runOnce(ctx, "export", "-dir", dir, "-workers", n)
	if err != nil {
		return 0, usage{}, err
	}
	out, wv, uv, err := b.runOnce(ctx, "verify", "-workers", n)
	if err != nil {
		return 0, usage{}, err
	}
	b.tally.op(bytes.Contains(out, []byte(paperClaims)), "verify did not report %q", paperClaims)
	err = exportMatches(dir, goldens)
	b.tally.op(err == nil, "export: %v", err)
	return we + wv, usage{cpu: ue.cpu + uv.cpu, rssMiB: max(ue.rssMiB, uv.rssMiB)}, nil
}

// exportMatches reports the first difference between an export directory
// and the goldens.
func exportMatches(dir string, goldens map[string][]byte) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(ents) != len(goldens) {
		return fmt.Errorf("%d files exported, want %d", len(ents), len(goldens))
	}
	for _, d := range coldtall.Artifacts().Descriptors() {
		got, err := os.ReadFile(filepath.Join(dir, d.File))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, goldens[d.Name]) {
			return fmt.Errorf("%s differs from testdata/golden", d.File)
		}
	}
	return nil
}

// paperWarm primes one in-process Study with every artifact, then rebuilds
// all of them through ArtifactTable + RenderArtifactCSV until the deadline
// (at least once), timing each pass in wall and process CPU time, with a
// calibration run between passes, and checking every body against its
// golden after the clocks stop.
func (b *bench) paperWarm(ctx context.Context, sc *scaler, goldens map[string][]byte, deadline time.Time) (st *coldtall.Study, wall, raw, cpu []float64, err error) {
	st = coldtall.NewStudy()
	st.SetParallelism(b.cfg.nproc)
	st = st.WithContext(ctx)
	names := coldtall.Artifacts().Names()
	bufs := make([]bytes.Buffer, len(names))
	build := func() error {
		for i, name := range names {
			bufs[i].Reset()
			if err := st.RenderArtifactCSV(&bufs[i], name); err != nil {
				return fmt.Errorf("warm %s: %w", name, err)
			}
		}
		return nil
	}
	check := func() {
		for i, name := range names {
			b.tally.op(bytes.Equal(bufs[i].Bytes(), goldens[name]), "warm %s differs from its golden", name)
		}
	}
	if err := build(); err != nil {
		return nil, nil, nil, nil, err
	}
	check()
	b.digest.add("explorer.optimize_calls", st.Explorer().OptimizeCalls())
	for len(wall) == 0 || time.Now().Before(deadline) {
		if err := sc.before(ctx); err != nil {
			return nil, nil, nil, nil, err
		}
		t, c := time.Now(), selfCPU()
		if err := build(); err != nil {
			return nil, nil, nil, nil, err
		}
		d := ms(selfCPU() - c)
		wall = append(wall, ms(time.Since(t)))
		scale, err := sc.after(ctx)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		raw, cpu = append(raw, d), append(cpu, scale*d)
		check()
	}
	return st, wall, raw, cpu, nil
}

// paperPruneDigest adds the search's pruned and characterized counts over
// the paper's design points, searched serially in a fixed order.
func (b *bench) paperPruneDigest(ctx context.Context) error {
	pts, err := paperPoints()
	if err != nil {
		return err
	}
	var pruned, characterized int
	for _, p := range pts {
		_, s, err := array.OptimizeWithStats(ctx, p.ArrayConfig())
		if err != nil {
			return err
		}
		pruned += s.Pruned
		characterized += s.Characterized
	}
	b.digest.add("array.pruned", pruned)
	b.digest.add("array.characterized", characterized)
	return nil
}

// paperDigest adds the golden hashes and the 21 claims' measured values.
func (b *bench) paperDigest(goldens map[string][]byte, st *coldtall.Study) error {
	for name, g := range goldens {
		b.digest.add("golden."+name, sha(g))
	}
	var claims strings.Builder
	for _, r := range st.Verify() {
		fmt.Fprintf(&claims, "%s=%s;", r.ID, r.Measured)
	}
	b.digest.add("claims", sha([]byte(claims.String())))
	return nil
}

// paperPoints is the paper's design-point grid: the Table II candidates,
// the cryogenic sweep (Figs. 1 and 3) and the eNVM stacking sweep (Figs. 6
// and 7).
func paperPoints() ([]explorer.DesignPoint, error) {
	t2, err := explorer.TableIICandidates()
	if err != nil {
		return nil, err
	}
	envm, err := explorer.ENVMSweep()
	if err != nil {
		return nil, err
	}
	pts := append(t2, explorer.CryoSweep(cryo.EffectiveTemperatures())...)
	return append(pts, envm...), nil
}
