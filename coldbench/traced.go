package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"coldtall"
)

// The traced run (-trace 1). First the layer walk (walk.go) measures every
// layer's public functions under spans and a CPU profile. Then it runs the
// workload's flow for the measured seconds as a series of units that
// alternate between tracing off and tracing on (spans, and a CPU profile
// of the process doing the work). Alternating keeps a slow stretch of the
// machine from landing on one side only: the difference of the two
// headline medians is the tracing overhead, and the traced units' profiles
// attribute the flow's CPU time to layers. Each sample goes to the
// innermost coldtall frame on its stack; samples with none (GC, scheduler,
// network) are the unattributed remainder.

// flow is one workload's traced flow.
type flow interface {
	// unit runs one unit of the flow and returns its headline samples
	// (ms) and its wall time. When b.rec is set the unit is traced: the
	// process doing the work is profiled for window and its CPU
	// milliseconds by layer are returned.
	unit(ctx context.Context, b *bench, window time.Duration) (samples []float64, wall time.Duration, cpu map[string]float64, err error)
	close()
}

func tracePaper(ctx context.Context, b *bench) error {
	return b.traced(ctx, "paper_cold_build_ms", &paperFlow{})
}

func traceServe(ctx context.Context, b *bench) error {
	return b.traced(ctx, "hit_p50_ms", &serveFlow{})
}

func traceIngest(ctx context.Context, b *bench) error {
	return b.traced(ctx, "trace_to_answer_p50_ms", &ingestFlow{})
}

func (b *bench) traced(ctx context.Context, headline string, f flow) error {
	defer f.close()
	// The walk goes first, so its counts see a process in which no layer
	// has run yet (the array search memo is process-global).
	b.rec = newRecorder()
	walkRoot := b.rec.start("unattributed.walk", 0)
	b.root = walkRoot
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	err := b.walk(ctx)
	pprof.StopCPUProfile()
	b.rec.end(walkRoot)
	if err != nil {
		return err
	}
	walkCPU, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return err
	}
	walkSpans := b.rec.snapshot()

	rec := b.rec
	flowRoot := rec.start("unattributed.flow", 0)
	flowCPU := map[string]float64{}
	var off, on []float64
	var window time.Duration
	deadline := time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		traced := i%2 == 1
		b.rec, b.root = nil, 0
		if traced {
			b.rec, b.root = rec, flowRoot
		}
		samples, wall, cpu, err := f.unit(ctx, b, window)
		if err != nil {
			b.rec = rec
			return err
		}
		if traced {
			on = append(on, samples...)
			addCPU(flowCPU, cpu)
		} else {
			off = append(off, samples...)
			// The next traced unit's profile covers the untraced unit's
			// wall time with room to spare.
			window = time.Duration(math.Ceil(1.5*wall.Seconds())) * time.Second
		}
	}
	b.rec = rec
	rec.end(flowRoot)
	b.note(headline+".untraced", "ms", median(off), len(off))
	b.note(headline+".traced", "ms", median(on), len(on))
	b.set("tracing.overhead_ms", "ms", median(on)-median(off))

	foldOther(walkCPU)
	for k, v := range foldOther(flowCPU) {
		b.extra["flow cpu ms in "+k] = fmt.Sprintf("%.0f", v)
	}
	self := selfTimes(walkSpans)
	flowTotal := 0.0
	for _, v := range flowCPU {
		flowTotal += v
	}
	for _, l := range layers {
		row := layerRow{Layer: l, WalkSpanMS: ms(self[l]), WalkCPUMS: walkCPU[l], FlowCPUMS: flowCPU[l]}
		if flowTotal > 0 {
			row.FlowCPUShare = flowCPU[l] / flowTotal
		}
		b.layers = append(b.layers, row)
	}
	b.note("error_rate", "ratio", b.errorRate(), int(b.tally.attempted.Load()))
	return nil
}

// profileChild starts a CPU profile of the child for window (whole
// seconds, at least one) on a
// connection of its own; the returned function waits for it and returns
// CPU milliseconds by layer.
func profileChild(ctx context.Context, c *child, window time.Duration) func() (map[string]float64, error) {
	type res struct {
		m   map[string]float64
		err error
	}
	ch := make(chan res, 1)
	go func() {
		client := &http.Client{}
		defer client.CloseIdleConnections()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/pprof/profile?seconds="+strconv.Itoa(max(1, int(window/time.Second))), nil)
		if err != nil {
			ch <- res{err: err}
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			ch <- res{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			ch <- res{err: fmt.Errorf("profile: %d %v", resp.StatusCode, err)}
			return
		}
		m, err := cpuByLayer(raw)
		ch <- res{m, err}
	}()
	return func() (map[string]float64, error) {
		r := <-ch
		return r.m, r.err
	}
}

// foldOther moves the "other/<pkg>" entries of m into "other" and returns
// them.
func foldOther(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, "other/") {
			m["other"] += v
			out[k] = v
			delete(m, k)
		}
	}
	return out
}

func addCPU(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// profiled runs work and, when the unit is traced, a profile of c over
// window beside it, and returns the profile's CPU milliseconds by layer.
func (b *bench) profiled(ctx context.Context, c *child, window time.Duration, work func() error) (map[string]float64, error) {
	if b.rec == nil {
		return nil, work()
	}
	wait := profileChild(ctx, c, window)
	err := work()
	cpu, perr := wait()
	if err != nil {
		return nil, err
	}
	return cpu, perr
}

// paperFlow is a proxy for the paper workload's cold sample: each unit
// builds every registry artifact cold in a fresh memory-only serve child,
// one request after another, and checks each body against its golden. The
// cold sample itself is an export process and a verify process, which
// cannot be profiled from outside; the serve child builds the same
// artifacts through the same layers and can. Verify is left out. The
// headline is the whole cold build.
type paperFlow struct{ goldens map[string][]byte }

func (f *paperFlow) unit(ctx context.Context, b *bench, window time.Duration) ([]float64, time.Duration, map[string]float64, error) {
	if f.goldens == nil {
		var err error
		if f.goldens, err = loadGoldens(b.cfg.root); err != nil {
			return nil, 0, nil, err
		}
	}
	c, _, err := b.startServe(ctx, false)
	if err != nil {
		return nil, 0, nil, err
	}
	defer c.stop()
	var build time.Duration
	cpu, err := b.profiled(ctx, c, window, func() error {
		start := time.Now()
		for _, name := range coldtall.Artifacts().Names() {
			sp := b.rec.start("artifact.cold."+name, b.root)
			code, body, err := c.do(ctx, http.MethodGet, "/v1/artifacts/"+name+"?format=csv", nil)
			b.rec.end(sp)
			b.tally.op(err == nil && code == http.StatusOK && bytes.Equal(body, f.goldens[name]),
				"cold %s: %d %v or body differs from its golden", name, code, err)
		}
		build = time.Since(start)
		return nil
	})
	return []float64{ms(build)}, build, cpu, err
}

func (f *paperFlow) close() {}

// serveFlow is the serve workload's mixed closed loop on one fresh child;
// each unit is one segment of it. The headline is hit latency, where
// tracing overhead shows first.
type serveFlow struct {
	c     *child
	first map[string][]byte
	seqs  []*sequence
}

func (f *serveFlow) unit(ctx context.Context, b *bench, window time.Duration) ([]float64, time.Duration, map[string]float64, error) {
	if f.c == nil {
		hot, err := hotSet()
		if err != nil {
			return nil, 0, nil, err
		}
		grid, err := newMissGrid(b.cfg.seed)
		if err != nil {
			return nil, 0, nil, err
		}
		goldens, err := loadGoldens(b.cfg.root)
		if err != nil {
			return nil, 0, nil, err
		}
		if f.c, _, err = b.startServe(ctx, true); err != nil {
			return nil, 0, nil, err
		}
		if f.first, err = b.primeHot(ctx, f.c, hot, goldens); err != nil {
			return nil, 0, nil, err
		}
		f.seqs = phaseSeqs(b.cfg.seed, b.cfg.nproc, 1, hot, grid, missFraction)
	}
	// A segment lasts whole seconds so that its profile covers exactly it.
	seg := 2 * time.Second
	var stats []loopStats
	start := time.Now()
	cpu, err := b.profiled(ctx, f.c, seg, func() error {
		stats = b.closedLoop(ctx, f.c, f.seqs, seg, f.first)
		return nil
	})
	wall := time.Since(start)
	if err == nil {
		err = b.checkMisses(stats)
	}
	var hits []float64
	for _, s := range stats {
		hits = append(hits, s.hits...)
	}
	return hits, wall, cpu, err
}

func (f *serveFlow) close() {
	if f.c != nil {
		f.c.stop()
	}
}

// ingestFlow's units are ingest rounds, each on its own fresh child,
// profiled over the whole round when traced.
type ingestFlow struct{ round int }

func (f *ingestFlow) unit(ctx context.Context, b *bench, window time.Duration) ([]float64, time.Duration, map[string]float64, error) {
	round := f.round
	f.round++
	traces, err := roundTraces(b.cfg.seed, round)
	if err != nil {
		return nil, 0, nil, err
	}
	c, _, err := b.startServe(ctx, true)
	if err != nil {
		return nil, 0, nil, err
	}
	defer c.stop()
	var ups []upload
	var wall time.Duration
	cpu, err := b.profiled(ctx, c, window, func() error {
		start := time.Now()
		var err error
		ups, err = b.uploadRound(ctx, c, round, traces)
		wall = time.Since(start)
		return err
	})
	if err != nil {
		return nil, 0, nil, err
	}
	if err := b.checkRound(ups, false); err != nil {
		return nil, 0, nil, err
	}
	var answers []float64
	for _, u := range ups {
		answers = append(answers, ms(u.answer))
	}
	return answers, wall, cpu, nil
}

func (f *ingestFlow) close() {}
