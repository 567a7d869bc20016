package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/cache"
	"coldtall/internal/explorer"
	"coldtall/internal/server"
	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/store"
	"coldtall/internal/tech"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// The layer walk is the traced run's per-layer measurement: the benchmark
// calls each layer's public functions itself, inside spans, with the
// workloads' own inputs — the paper's design points, the serve workload's
// request keys and miss points, and the ingest workload's trace bytes for
// the seed. Every traced run walks every layer, so each per-layer metric
// is reported on every workload. Counts are exact; times are medians over
// calls.

// walkMissPoints is how many of the seed's serve miss points the walk
// characterizes and evaluates.
const walkMissPoints = 24

// timed runs f inside a span and returns its duration.
func (b *bench) timed(name string, f func() error) (time.Duration, error) {
	sp := b.rec.start(name, b.root)
	t := time.Now()
	err := f()
	d := time.Since(t)
	b.rec.end(sp)
	return d, err
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (b *bench) walk(ctx context.Context) error {
	for _, stage := range []func(context.Context) error{
		b.walkArray, b.walkTech, b.walkExplorer, b.walkArtifact, b.walkWorkload,
		b.walkTraces, b.walkServer, b.walkStoreCache,
	} {
		if err := stage(ctx); err != nil {
			return err
		}
	}
	return nil
}

// walkArray runs the organization search on every paper design point,
// first touch for this process's search memo.
func (b *bench) walkArray(ctx context.Context) error {
	pts, err := paperPoints()
	if err != nil {
		return err
	}
	var opt, chr, allocs []float64
	var characterized, pruned, warm int
	for _, p := range pts {
		cfg := p.ArrayConfig()
		var res array.Result
		var st array.SearchStats
		m0 := mallocs()
		d, err := b.timed("array.optimize", func() (err error) {
			res, st, err = array.OptimizeWithStats(ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(mallocs()-m0))
		opt = append(opt, ms(d))
		characterized += st.Characterized
		pruned += st.Pruned
		if st.WarmStart {
			warm++
		}
		d, err = b.timed("array.characterize", func() error {
			_, err := array.Characterize(cfg, res.Org)
			return err
		})
		if err != nil {
			return err
		}
		chr = append(chr, us(d))
	}
	n := float64(len(pts))
	b.set("array.optimize_ms", "ms", median(opt))
	b.set("array.characterize_us", "us", median(chr))
	b.set("array.characterized_per_optimize", "count", float64(characterized)/n)
	b.set("array.prune_rate", "ratio", float64(pruned)/float64(pruned+characterized))
	b.set("array.warm_start_share", "ratio", float64(warm)/n)
	b.set("array.optimize_allocs", "count", median(allocs))
	return nil
}

// walkTech times the wire models at temperatures this process has not
// touched (derived from the seed), then again at the same temperatures.
func (b *bench) walkTech(ctx context.Context) error {
	const n = 64
	base := 80 + float64(uint64(mix(b.cfg.seed, 0x74656368))%20000)/100
	var first, repeat, wire []float64
	var sink float64
	for i := 0; i < n; i++ {
		t := base + float64(i)*0.37
		d, _ := b.timed("tech.resistivity", func() error { sink += tech.WireResistivity(t); return nil })
		first = append(first, us(d))
	}
	for i := 0; i < n; i++ {
		t := base + float64(i)*0.37
		d, _ := b.timed("tech.resistivity", func() error { sink += tech.WireResistivity(t); return nil })
		repeat = append(repeat, us(d))
		d, err := b.timed("tech.wire", func() error {
			w, err := tech.NewWire(tech.WireGlobal, t)
			sink += w.ResistancePerMeter()
			return err
		})
		if err != nil {
			return err
		}
		wire = append(wire, us(d))
	}
	b.set("tech.resistivity_first_us", "us", median(first))
	b.set("tech.resistivity_repeat_us", "us", median(repeat))
	b.set("tech.wire_us", "us", median(wire))
	return ctx.Err()
}

// walkPoints is the explorer's input: the paper grid plus the seed's first
// serve miss points.
func (b *bench) walkPoints() ([]explorer.DesignPoint, error) {
	pts, err := paperPoints()
	if err != nil {
		return nil, err
	}
	n := len(pts)
	grid, err := newMissGrid(b.cfg.seed)
	if err != nil {
		return nil, err
	}
	for i := 0; len(pts) < n+walkMissPoints; i++ {
		if spec, ok := grid.point(i); ok {
			p, err := explorer.ParsePoint(spec)
			if err != nil {
				return nil, err
			}
			pts = append(pts, p)
		}
	}
	return pts, nil
}

// walkExplorer characterizes every point on a fresh explorer, then
// evaluates each under one benchmark's traffic on a warm one.
func (b *bench) walkExplorer(ctx context.Context) error {
	pts, err := b.walkPoints()
	if err != nil {
		return err
	}
	tr, err := workload.StaticTrafficFor("mcf")
	if err != nil {
		return err
	}
	var chr, allocs, eval []float64
	warm := explorer.New()
	for _, p := range pts {
		m0 := mallocs()
		d, err := b.timed("explorer.characterize", func() error {
			_, err := explorer.New().CharacterizeContext(ctx, p)
			return err
		})
		if err != nil {
			return err
		}
		allocs = append(allocs, float64(mallocs()-m0))
		chr = append(chr, ms(d))
		if _, err := warm.CharacterizeContext(ctx, p); err != nil {
			return err
		}
		d, err = b.timed("explorer.evaluate", func() error {
			_, err := warm.EvaluateContext(ctx, p, tr)
			return err
		})
		if err != nil {
			return err
		}
		eval = append(eval, us(d))
	}
	b.set("explorer.characterize_ms", "ms", median(chr))
	b.set("explorer.characterize_allocs", "count", median(allocs))
	b.set("explorer.evaluate_us", "us", median(eval))
	return nil
}

// walkArtifact builds each artifact cold in a fresh process (so no memo
// carries over; the time includes process start), then warm on a primed
// in-process Study, and times the claims check.
func (b *bench) walkArtifact(ctx context.Context) error {
	goldens, err := loadGoldens(b.cfg.root)
	if err != nil {
		return err
	}
	const coldReps, warmReps = 3, 5
	names := coldtall.Artifacts().Names()
	for _, name := range names {
		var cold []float64
		for i := 0; i < coldReps; i++ {
			var out []byte
			d, err := b.timed("artifact.cold."+name, func() (err error) {
				out, _, _, err = b.runOnce(ctx, "artifacts", "-format", "csv", "-workers", strconv.Itoa(b.cfg.nproc), name)
				return err
			})
			if err != nil {
				return err
			}
			b.tally.op(bytes.Equal(out, goldens[name]), "cold %s differs from its golden", name)
			cold = append(cold, ms(d))
		}
		b.set("artifact.cold_ms."+name, "ms", median(cold))
	}
	st := coldtall.NewStudy()
	st.SetParallelism(b.cfg.nproc)
	st = st.WithContext(ctx)
	for _, name := range names {
		if err := st.RenderArtifactCSV(io.Discard, name); err != nil {
			return err
		}
	}
	b.set("explorer.optimize_calls", "count", float64(st.Explorer().OptimizeCalls()))
	var buf bytes.Buffer
	for _, name := range names {
		var warm []float64
		for i := 0; i < warmReps; i++ {
			buf.Reset()
			d, err := b.timed("artifact.warm."+name, func() error { return st.RenderArtifactCSV(&buf, name) })
			if err != nil {
				return err
			}
			b.tally.op(bytes.Equal(buf.Bytes(), goldens[name]), "warm %s differs from its golden", name)
			warm = append(warm, ms(d))
		}
		b.set("artifact.warm_ms."+name, "ms", median(warm))
	}
	var verify []float64
	for i := 0; i < 3; i++ {
		fresh := coldtall.NewStudy()
		fresh.SetParallelism(b.cfg.nproc)
		pass := 0
		d, _ := b.timed("artifact.verify", func() error {
			for _, r := range fresh.WithContext(ctx).Verify() {
				if r.Pass {
					pass++
				}
			}
			return nil
		})
		b.tally.op(pass == 21, "verify: %d/21 claims pass", pass)
		verify = append(verify, ms(d))
	}
	b.set("artifact.verify_ms", "ms", median(verify))
	return nil
}

// walkWorkload measures profiles through the generator stream path the
// wlsig artifact and the calibration use.
func (b *bench) walkWorkload(ctx context.Context) error {
	var meas []float64
	for _, name := range []string{"mcf", "lbm", "gcc", "namd"} {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return err
		}
		d, err := b.timed("workload.measure", func() error {
			_, err := workload.Measure(p, 1<<16, b.cfg.seed)
			return err
		})
		if err != nil {
			return err
		}
		meas = append(meas, ms(d))
	}
	b.set("workload.measure_ms", "ms", median(meas))
	return ctx.Err()
}

// walkTraces generates, encodes, decodes, replays and signs the ingest
// workload's round-0 traces for the seed.
func (b *bench) walkTraces(ctx context.Context) error {
	var gen, enc, dec, serial, auto, sig time.Duration
	var total, misses, allocs float64
	for _, kind := range ingestKinds {
		var data []byte
		d, err := b.timed("trace.generate_encode", func() (err error) {
			data, err = ingestTrace(b.cfg.seed, 0, kind)
			return err
		})
		if err != nil {
			return err
		}
		gen += d
		var all []trace.Access
		d, err = b.timed("trace.decode", func() (err error) {
			all, err = trace.ReadAll(trace.NewBinaryReader(bytes.NewReader(data)))
			return err
		})
		if err != nil {
			return err
		}
		dec += d
		d, err = b.timed("trace.encode", func() error { return trace.WriteBinary(io.Discard, all) })
		if err != nil {
			return err
		}
		enc += d
		total += float64(len(all))

		eng, err := sim.NewSharded(sim.TableIConfig(), 1, 1)
		if err != nil {
			return err
		}
		m0 := mallocs()
		d, err = b.timed("sim.replay_serial", func() error { return eng.Replay(ctx, all) })
		if err != nil {
			return err
		}
		allocs += float64(mallocs() - m0)
		serial += d
		misses += float64(eng.Snapshot().LLC().Misses())

		shards := sim.AutoShards(sim.TableIConfig(), b.cfg.nproc)
		eng, err = sim.NewSharded(sim.TableIConfig(), shards, b.cfg.nproc)
		if err != nil {
			return err
		}
		d, err = b.timed("sim.replay_auto", func() error { return eng.Replay(ctx, all) })
		if err != nil {
			return err
		}
		auto += d

		acc := signature.NewAccumulator()
		d, _ = b.timed("signature.observe", func() error {
			for _, a := range all {
				acc.Observe(a)
			}
			return nil
		})
		sig += d
	}
	// Generation time is the generate+encode span minus the encode time
	// measured on its own.
	b.set("trace.gen_maccess_per_s", "M/s", total/1e6/(gen-enc).Seconds())
	b.set("trace.encode_maccess_per_s", "M/s", total/1e6/enc.Seconds())
	b.set("trace.decode_maccess_per_s", "M/s", total/1e6/dec.Seconds())
	b.set("sim.replay_maccess_per_s", "M/s", total/1e6/serial.Seconds())
	b.set("sim.replay_auto_maccess_per_s", "M/s", total/1e6/auto.Seconds())
	b.set("sim.replay_allocs_per_maccess", "count", allocs/(total/1e6))
	b.set("sim.llc_misses", "count", misses)
	b.set("signature.observe_maccess_per_s", "M/s", total/1e6/sig.Seconds())
	b.digest.add("sim.llc_misses", misses)
	return nil
}

// walkServer runs an in-process server on a fresh store: the seed's miss
// points and hot keys through Handler().ServeHTTP, hits over loopback
// HTTP, and the ingest traces through the chunk route; then it reads the
// server's own counters.
func (b *bench) walkServer(ctx context.Context) error {
	dir, err := b.freshDir("walk-store-")
	if err != nil {
		return err
	}
	srv, c, stop, err := b.inProcessServer(ctx, dir, 0)
	if err != nil {
		return err
	}
	defer stop()
	h := srv.Handler()
	hot, err := hotSet()
	if err != nil {
		return err
	}
	grid, err := newMissGrid(b.cfg.seed)
	if err != nil {
		return err
	}

	var miss []float64
	seq := newSequence(b.cfg.seed, 0, 1, hot, grid)
	seq.missFrac = 1
	for i := 0; i < walkMissPoints; i++ {
		r, err := seq.Next()
		if err != nil {
			return err
		}
		var code int
		d, _ := b.timed("server.handler_miss", func() error { code, _ = serveInProcess(h, r); return nil })
		b.tally.op(code == http.StatusOK, "in-process miss %s: %d", r.key, code)
		miss = append(miss, ms(d))
	}
	for _, r := range hot {
		code, _ := serveInProcess(h, r)
		b.tally.op(code == http.StatusOK, "in-process prime %s: %d", r.key, code)
	}

	const hits = 4000
	seq = newSequence(b.cfg.seed, 0, 1, hot, nil)
	seq.missFrac = 0
	reqs := make([]request, hits)
	for i := range reqs {
		reqs[i], _ = seq.Next()
	}
	hit := make([]float64, 0, hits)
	for _, r := range reqs {
		req, rw := newInProcess(r)
		d, _ := b.timed("server.handler_hit", func() error { h.ServeHTTP(rw, req); return nil })
		hit = append(hit, us(d))
	}
	// Allocations of the handler alone: requests and recorders are built
	// before the count starts.
	reqs2 := make([]*http.Request, hits)
	rws := make([]*httptest.ResponseRecorder, hits)
	for i, r := range reqs {
		reqs2[i], rws[i] = newInProcess(r)
	}
	m0 := mallocs()
	for i := range reqs2 {
		h.ServeHTTP(rws[i], reqs2[i])
	}
	allocsPerHit := float64(mallocs()-m0) / hits

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() { _ = hs.Serve(ln); close(served) }()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	var wire []float64
	for _, r := range reqs[:1000] {
		req, _ := http.NewRequestWithContext(ctx, r.method, "http://"+ln.Addr().String()+r.path, bytes.NewReader(r.body))
		d, err := b.timed("server.http_hit", func() error {
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return err
		})
		b.tally.op(err == nil, "loopback hit %s: %v", r.key, err)
		wire = append(wire, us(d))
	}
	client.CloseIdleConnections()
	_ = hs.Shutdown(ctx)
	<-served

	b.set("server.handler_hit_us", "us", median(hit))
	b.set("server.handler_miss_ms", "ms", median(miss))
	b.set("server.http_overhead_us", "us", median(wire)-median(hit))
	b.set("server.allocs_per_hit", "count", allocsPerHit)

	// The ingest traces go through the chunk route over loopback, as the
	// ingest workload sends them.
	traces, err := roundTraces(b.cfg.seed, 0)
	if err != nil {
		return err
	}
	ups, err := b.uploadRound(ctx, c, 0, traces)
	stop()
	if err != nil {
		return err
	}
	var jobWall time.Duration
	for _, u := range ups {
		jobWall += u.ingest
	}
	prom := parseProm(b.metricsBody(h))
	replay := prom["coldtall_workload_replay_seconds_sum"]
	b.set("ingest.replay_s", "s", replay)
	b.set("ingest.dedup_total", "count", prom["coldtall_ingest_dedup_total"])
	b.set("ingest.non_replay_s", "s", jobWall.Seconds()-replay)
	b.set("store.puts", "count", prom["coldtall_store_puts"])
	hitsN, missesN := prom["coldtall_cache_hits_total"], prom["coldtall_cache_misses_total"]
	b.set("cache.hit_ratio", "ratio", hitsN/(hitsN+missesN))
	b.extra["server.shed_total"] = fmt.Sprint(prom["coldtall_shed_total"]) +
		" (not a contract metric: a closed loop of nproc clients stays under the admission bound, so it reads 0)"

	// A second server on the same store, with a response cache too small
	// for the warm seed to hold the hot set: the rest is served from the
	// persistence tier.
	srv2, _, stop2, err := b.inProcessServer(ctx, dir, 8)
	if err != nil {
		return err
	}
	defer stop2()
	for _, r := range hot[:len(hot)/2] {
		code, _ := serveInProcess(srv2.Handler(), r)
		b.tally.op(code == http.StatusOK, "restarted %s: %d", r.key, code)
	}
	prom2 := parseProm(b.metricsBody(srv2.Handler()))
	b.set("cache.tier_hits", "count", prom2["coldtall_cache_tier_hits"])
	b.set("store.hits", "count", prom2["coldtall_store_hits"])
	return nil
}

// inProcessServer builds a server on dir (cacheEntries 0 keeps the
// default response cache size) that listens on a loopback port until the
// returned stop is called, and a client for it; stop may be called more
// than once.
func (b *bench) inProcessServer(ctx context.Context, dir string, cacheEntries int) (*server.Server, *child, func(), error) {
	st := coldtall.NewStudy()
	st.SetParallelism(b.cfg.nproc)
	srv, err := server.New(st, server.Config{StoreDir: dir, CacheEntries: cacheEntries, JobWorkers: b.cfg.nproc, Logger: discardLogger()})
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	c := &child{base: "http://" + ln.Addr().String(), client: &http.Client{Transport: &http.Transport{DisableCompression: true}}}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { _ = srv.Serve(sctx, ln); close(done) }()
	var once sync.Once
	return srv, c, func() {
		once.Do(func() {
			c.client.CloseIdleConnections()
			cancel()
			<-done
		})
	}, nil
}

func (b *bench) metricsBody(h http.Handler) []byte {
	_, body := serveInProcess(h, request{method: http.MethodGet, path: "/metrics"})
	return body
}

// walkStoreCache times the store with a trace-sized blob and a
// response-sized entry, and the response cache's hit path.
func (b *bench) walkStoreCache(ctx context.Context) error {
	dir, err := b.freshDir("walk-kv-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Version: explorer.ModelVersion})
	if err != nil {
		return err
	}
	blob, err := ingestTrace(b.cfg.seed, 0, "zipf")
	if err != nil {
		return err
	}
	var put, get []float64
	for i := 0; i < 8; i++ {
		d, err := b.timed("store.put", func() error { return st.Put(fmt.Sprintf("bench|blob|%d", i), blob) })
		if err != nil {
			return err
		}
		put = append(put, ms(d))
	}
	small := bytes.Repeat([]byte("x"), 600)
	if err := st.Put("bench|small", small); err != nil {
		return err
	}
	for i := 0; i < 500; i++ {
		var ok bool
		d, _ := b.timed("store.get", func() error { _, ok = st.Get("bench|small"); return nil })
		if !ok {
			return fmt.Errorf("store: entry written above is missing")
		}
		get = append(get, us(d))
	}
	b.set("store.put_ms", "ms", median(put))
	b.set("store.get_us", "us", median(get))

	c, err := cache.New[[]byte](1024)
	if err != nil {
		return err
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("characterize|key-%d", i)
		c.Add(keys[i], small)
	}
	const batch, batches = 1000, 50
	var hit []float64
	m0 := mallocs()
	for j := 0; j < batches; j++ {
		d, _ := b.timed("cache.get", func() error {
			for i := 0; i < batch; i++ {
				if _, ok := c.Get(keys[i%len(keys)]); !ok {
					return fmt.Errorf("cache: key added above is missing")
				}
			}
			return nil
		})
		hit = append(hit, float64(d.Nanoseconds())/batch)
	}
	b.set("cache.hit_ns", "ns", median(hit))
	b.set("cache.allocs_per_hit", "count", float64(mallocs()-m0)/(batch*batches))
	return ctx.Err()
}
