package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"coldtall"
	"coldtall/internal/server"
)

// The serve workload is the design-space client: scripts and notebooks
// that wait for each reply before sending the next request, so the load is
// a closed loop of nproc keep-alive clients against a fresh `coldtall
// serve` child. About 95% of requests repeat a hot key (cache and HTTP
// handle them); about 5% ask for a design point never seen before
// (explorer, array, tech and the store write-through do the work).

const (
	// setupGroups × bootsPerGroup children are booted only to time
	// set-up; table2Boots more each answer a first /v1/tables/2, and the
	// last of them takes the load.
	bootsPerGroup = 4
	table2Boots   = 3
	// segmentLen is the longest stretch of closed loop between two
	// calibration runs.
	segmentLen = time.Second
	// missSample is how many miss bodies per client are recomputed
	// in-process and compared byte for byte.
	missSample = 8
)

// loopStats is what one closed-loop client observed.
type loopStats struct {
	hits, misses []float64 // latency, ms
	sampled      []request // the first missSample misses …
	sampledBody  [][]byte  // … and the bodies served for them
}

func runServe(ctx context.Context, b *bench) error {
	hot, err := hotSet()
	if err != nil {
		return err
	}
	grid, err := newMissGrid(b.cfg.seed)
	if err != nil {
		return err
	}
	goldens, err := loadGoldens(b.cfg.root)
	if err != nil {
		return err
	}

	sc := b.newScaler()
	setupWall, setupCPU, err := b.bootSamples(ctx, sc, setupGroups, bootsPerGroup)
	if err != nil {
		return err
	}
	c, firstT2, err := b.bootServe(ctx, table2Boots)
	if err != nil {
		return err
	}
	first, err := b.primeHot(ctx, c, hot, goldens)
	if err != nil {
		return err
	}

	// Three phases on the one child: hot-only, for the CPU per hit;
	// miss-only, for the CPU per never-seen point; then the mixed loop the
	// workload is about, for latency and throughput.
	phase := time.Duration(b.cfg.seconds) * time.Second * 3 / 10
	hotStats, hotCPU, hotRaw, err := b.segments(ctx, sc, c, phaseSeqs(b.cfg.seed^0x686f74, b.cfg.nproc, 0, hot, nil, 0), phase, first)
	if err != nil {
		return err
	}
	missStats, missCPU, missRaw, err := b.segments(ctx, sc, c, phaseSeqs(b.cfg.seed, b.cfg.nproc, 0, hot, grid, 1), phase, first)
	if err != nil {
		return err
	}
	var hotLat, missOnly []float64
	for _, s := range hotStats {
		hotLat = append(hotLat, s.hits...)
	}
	for _, s := range missStats {
		missOnly = append(missOnly, s.misses...)
	}

	start := time.Now()
	stats, loopCPU, _, err := b.segments(ctx, sc, c, phaseSeqs(b.cfg.seed, b.cfg.nproc, 1, hot, grid, missFraction), time.Duration(b.cfg.seconds)*time.Second-2*phase, first)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	prom, err := c.scrape(ctx)
	if err != nil {
		return err
	}
	u := c.stop()

	var hits, misses []float64
	for _, s := range stats {
		hits = append(hits, s.hits...)
		misses = append(misses, s.misses...)
	}
	if len(hotLat) == 0 || len(missOnly) == 0 || len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("closed loops saw %d hot-only, %d miss-only, %d hit and %d miss replies; need all four", len(hotLat), len(missOnly), len(hits), len(misses))
	}
	if err := b.checkMisses(missStats); err != nil {
		return err
	}
	if err := b.checkMisses(stats); err != nil {
		return err
	}

	hitCPU := hotCPU / float64(len(hotLat))
	missCPU /= float64(len(missOnly))
	n := float64(len(hits) + len(misses))
	b.set("setup_s", "s", median(setupCPU))
	b.set("peak_rss_mb", "MiB", u.rssMiB)
	b.set("cold_cpu_ms", "ms", 1000*missCPU)
	b.set("warm_cpu_ms", "ms", 1000*hitCPU)

	b.note("setup_cpu_s", "s", median(setupCPU), len(setupCPU))
	b.note("setup_wall_s", "s", median(setupWall), len(setupWall))
	b.note("peak_rss_mb", "MiB", u.rssMiB, 1)
	b.note("serve_rps", "req/s", n/wall.Seconds(), int(n))
	b.noteDist("hit", "ms", hits)
	b.noteDist("miss", "ms", misses)
	b.note("first_table2_ms", "ms", median(firstT2), len(firstT2))
	b.note("hit_cpu_ms", "ms", 1000*hitCPU, len(hotLat))
	b.note("miss_cpu_ms", "ms", 1000*missCPU, len(missOnly))
	b.note("hit_raw_cpu_ms", "ms", 1000*hotRaw/float64(len(hotLat)), len(hotLat))
	b.note("miss_raw_cpu_ms", "ms", 1000*missRaw/float64(len(missOnly)), len(missOnly))
	// The mixed loop's CPU split: hits at the hot-only phase's cost per
	// hit, the rest to misses.
	b.note("hit_cpu_share", "ratio", hitCPU*float64(len(hits))/loopCPU, len(hits))
	sc.note()
	b.note("error_rate", "ratio", b.errorRate(), int(b.tally.attempted.Load()))
	if b.gridUsedUp.Load() {
		b.extra["miss grid"] = "used up: a client ended its loop early, so the mix held fewer misses than asked"
	}
	for _, k := range []string{"coldtall_cache_hits_total", "coldtall_cache_misses_total", "coldtall_shed_total", "coldtall_store_puts"} {
		b.extra["child "+k] = fmt.Sprint(prom[k])
	}

	for _, r := range hot {
		b.digest.add("hot."+r.key, sha(first[r.key]))
	}
	for ci, s := range stats {
		for i, r := range s.sampled {
			b.digest.add(fmt.Sprintf("miss.%d.%d.%s", ci, i, r.key), sha(s.sampledBody[i]))
		}
	}
	return nil
}

// segments runs the closed loop for d in segments of at most segmentLen,
// with a calibration run on either side of each. It returns every
// client's replies and the child's CPU seconds over the segments,
// calibrated and raw.
func (b *bench) segments(ctx context.Context, sc *scaler, c *child, seqs []*sequence, d time.Duration, first map[string][]byte) (stats []loopStats, cpu, raw float64, err error) {
	stats = make([]loopStats, len(seqs))
	deadline := time.Now().Add(d)
	for len(stats[0].hits)+len(stats[0].misses) == 0 || time.Now().Before(deadline) {
		if err := sc.before(ctx); err != nil {
			return nil, 0, 0, err
		}
		c0 := c.cpuSeconds()
		seg := b.closedLoop(ctx, c, seqs, min(segmentLen, time.Until(deadline)), first)
		r := c.cpuSeconds() - c0
		scale, err := sc.after(ctx)
		if err != nil {
			return nil, 0, 0, err
		}
		cpu, raw = cpu+scale*r, raw+r
		for i, s := range seg {
			st := &stats[i]
			st.hits = append(st.hits, s.hits...)
			st.misses = append(st.misses, s.misses...)
			for j := 0; j < len(s.sampled) && len(st.sampled) < missSample; j++ {
				st.sampled = append(st.sampled, s.sampled[j])
				st.sampledBody = append(st.sampledBody, s.sampledBody[j])
			}
		}
	}
	return stats, cpu, raw, nil
}

// bootServe boots n fresh children one after another, timing each one's
// first /v1/tables/2; it stops all but the last.
func (b *bench) bootServe(ctx context.Context, n int) (*child, []float64, error) {
	var firstT2 []float64
	for i := 0; i < n; i++ {
		c, _, err := b.startServe(ctx, true)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		code, _, err := c.do(ctx, http.MethodGet, "/v1/tables/2", nil)
		firstT2 = append(firstT2, ms(time.Since(t)))
		b.tally.op(err == nil && code == http.StatusOK, "first /v1/tables/2: %d %v", code, err)
		if i == n-1 {
			return c, firstT2, nil
		}
		c.stop()
	}
	return nil, nil, fmt.Errorf("no boots requested")
}

// primeHot requests every hot key once and keeps the bodies: later
// requests for the key must answer the same bytes, and artifacts must
// equal their goldens.
func (b *bench) primeHot(ctx context.Context, c *child, hot []request, goldens map[string][]byte) (map[string][]byte, error) {
	first := map[string][]byte{}
	for _, r := range hot {
		code, body, err := c.do(ctx, r.method, r.path, r.body)
		if err != nil {
			return nil, err
		}
		ok := code == http.StatusOK
		if name, isArtifact := strings.CutPrefix(r.key, "artifact|"); isArtifact {
			ok = ok && bytes.Equal(body, goldens[name])
		}
		b.tally.op(ok, "hot %s: status %d or body differs from its golden", r.key, code)
		first[r.key] = body
	}
	return first, nil
}

// phaseSeqs builds one request sequence per client for a phase that draws
// misses (phase 0: miss-only, phase 1: mixed). The two phases take
// disjoint slots of the grid, so no point is sent twice in a run.
func phaseSeqs(seed int64, clients, phase int, hot []request, grid *missGrid, missFrac float64) []*sequence {
	out := make([]*sequence, clients)
	for i := range out {
		out[i] = newSequence(seed, phase*clients+i, 2*clients, hot, grid)
		out[i].missFrac = missFrac
	}
	return out
}

// closedLoop runs one client goroutine per sequence for d: each sends its
// next request only after the previous reply is read. Every reply is
// checked after its latency is taken.
func (b *bench) closedLoop(ctx context.Context, c *child, seqs []*sequence, d time.Duration, first map[string][]byte) []loopStats {
	stats := make([]loopStats, len(seqs))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := range seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r, err := seqs[i].Next()
				if errors.Is(err, errGridUsedUp) {
					b.gridUsedUp.Store(true)
					return
				}
				if err != nil {
					b.tally.op(false, "client %d: %v", i, err)
					return
				}
				sp := b.rec.start(spanName(r), b.root)
				t := time.Now()
				code, body, err := c.do(ctx, r.method, r.path, r.body)
				lat := ms(time.Since(t))
				b.rec.end(sp)
				ok := err == nil && code == http.StatusOK
				if r.miss {
					st.misses = append(st.misses, lat)
					if len(st.sampled) < missSample {
						st.sampled = append(st.sampled, r)
						st.sampledBody = append(st.sampledBody, body)
					}
					b.tally.op(ok, "miss %s: %d %v", r.key, code, err)
				} else {
					st.hits = append(st.hits, lat)
					b.tally.op(ok && bytes.Equal(body, first[r.key]), "hit %s: %d %v or bytes differ from the first response", r.key, code, err)
				}
			}
		}(i)
	}
	wg.Wait()
	return stats
}

func spanName(r request) string {
	if r.miss {
		return "server.miss"
	}
	return "server.hit"
}

// checkMisses recomputes the sampled miss points in-process, through a
// fresh Study's explorer behind the same handler, and compares bytes.
func (b *bench) checkMisses(stats []loopStats) error {
	h, err := inProcessHandler()
	if err != nil {
		return err
	}
	for _, s := range stats {
		for i, r := range s.sampled {
			code, want := serveInProcess(h, r)
			if code != http.StatusOK || !bytes.Equal(want, s.sampledBody[i]) {
				b.tally.fail("miss %s: served body differs from the in-process explorer result", r.key)
			}
		}
	}
	return nil
}

// inProcessHandler is a memory-only server around a fresh Study.
func inProcessHandler() (http.Handler, error) {
	srv, err := server.New(coldtall.NewStudy(), server.Config{Logger: discardLogger()})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

func serveInProcess(h http.Handler, r request) (int, []byte) {
	req, rw := newInProcess(r)
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

func newInProcess(r request) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, httptest.NewRecorder()
}
