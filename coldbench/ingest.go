package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"coldtall/internal/ingest"
	"coldtall/internal/signature"
	"coldtall/internal/sim"
	"coldtall/internal/trace"
	"coldtall/internal/workload"
)

// The ingest workload is the workload owner: each round boots its own
// fresh serve child on an empty store and uploads one seeded set of traces
// (Zipf hot set, stream, pointer chase, and a near-duplicate of the Zipf
// trace) through the resumable chunk route, waits for each ingest job, and
// reads the trace's fig5. Trace decode, replay, the signature and large
// store writes do the work; array and tech do almost nothing after the
// first characterization.

const (
	// chunkBytes is the upload chunk size (the server's body limit is 1 MiB).
	chunkBytes = 512 << 10
)

// upload is what one trace's upload observed.
type upload struct {
	name, kind string
	bytes      []byte
	answer     time.Duration // first chunk sent → fig5 body read
	ingest     time.Duration // ?complete=1 sent → job done
	fig5       time.Duration // the fig5 read alone
	cpu        float64       // the child's CPU seconds over the same span as answer
	result     ingest.Result
	source     workload.Source
	sigSHA     string // served by /signature (the canonical's for an alias)
}

func runIngest(ctx context.Context, b *bench) error {
	sc := b.newScaler()
	setupWall, setupCPU, err := b.bootSamples(ctx, sc, setupGroups, bootsPerGroup)
	if err != nil {
		return err
	}
	var answers, fig5s, freshCPU, dupCPU, roundAnswer, rss []float64
	var accesses float64
	var ingestTime time.Duration
	var all [][]upload
	deadline := time.Now().Add(time.Duration(b.cfg.seconds) * time.Second)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		traces, err := roundTraces(b.cfg.seed, round)
		if err != nil {
			return err
		}
		if err := sc.before(ctx); err != nil {
			return err
		}
		c, _, err := b.startServe(ctx, true)
		if err != nil {
			return err
		}
		ups, err := b.uploadRound(ctx, c, round, traces)
		u := c.stop()
		if err != nil {
			return err
		}
		scale, err := sc.after(ctx)
		if err != nil {
			return err
		}
		rss = append(rss, u.rssMiB)
		var fresh, ra float64
		for _, up := range ups {
			answers = append(answers, ms(up.answer))
			fig5s = append(fig5s, ms(up.fig5))
			ra += ms(up.answer) / float64(len(ups))
			ingestTime += up.ingest
			accesses += ingestAccesses
			if up.kind == "dup" {
				dupCPU = append(dupCPU, scale*1000*up.cpu)
			} else {
				fresh += scale * 1000 * up.cpu / float64(len(ups)-1)
			}
		}
		freshCPU = append(freshCPU, fresh)
		roundAnswer = append(roundAnswer, ra)
		all = append(all, ups)
	}
	for r, ups := range all {
		if err := b.checkRound(ups, r == 0); err != nil {
			return err
		}
	}

	rate := accesses / ingestTime.Seconds()
	b.set("setup_s", "s", median(setupCPU))
	b.set("peak_rss_mb", "MiB", median(rss))
	// Child CPU comes from /proc in 10 ms ticks, so a median over rounds
	// would read the same tick count run after run; the mean resolves
	// finer.
	b.set("cold_cpu_ms", "ms", mean(freshCPU))
	b.set("warm_cpu_ms", "ms", mean(dupCPU))
	b.note("setup_cpu_s", "s", median(setupCPU), len(setupCPU))
	b.note("setup_wall_s", "s", median(setupWall), len(setupWall))
	b.note("peak_rss_mb", "MiB", median(rss), len(rss))
	b.note("ingest_maccess_per_s", "M/s", rate/1e6, len(answers))
	b.note("trace_to_answer_s", "s", median(answers)/1000, len(answers))
	b.noteDist("trace_to_answer", "ms", answers)
	b.note("trace_to_answer_round_mean_ms", "ms", median(roundAnswer), len(roundAnswer))
	b.noteDist("fig5_read", "ms", fig5s)
	b.note("fresh_trace_cpu_ms", "ms", mean(freshCPU), len(freshCPU))
	b.note("dup_trace_cpu_ms", "ms", mean(dupCPU), len(dupCPU))
	sc.note()
	b.note("error_rate", "ratio", b.errorRate(), int(b.tally.attempted.Load()))
	return nil
}

// uploadRound uploads the round's traces to c one after another.
func (b *bench) uploadRound(ctx context.Context, c *child, round int, traces [][]byte) ([]upload, error) {
	var ups []upload
	for i, kind := range ingestKinds {
		u := upload{name: fmt.Sprintf("r%d-%s", round, kind), kind: kind, bytes: traces[i]}
		if err := b.uploadTrace(ctx, c, &u); err != nil {
			return nil, err
		}
		ups = append(ups, u)
	}
	return ups, nil
}

// roundTraces generates one round's traces, in ingestKinds order.
func roundTraces(seed int64, round int) ([][]byte, error) {
	traces := make([][]byte, len(ingestKinds))
	for i, k := range ingestKinds {
		var err error
		if traces[i], err = ingestTrace(seed, round, k); err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// uploadTrace sends one trace in chunks, completes the upload, waits for
// the ingest job and reads fig5 for the new workload; then, off the clock,
// it fetches the job result, the served workload record and signature.
func (b *bench) uploadTrace(ctx context.Context, c *child, u *upload) error {
	sp := b.rec.start("ingest.trace_to_answer", b.root)
	defer b.rec.end(sp)
	cpu0 := c.cpuSeconds()
	start := time.Now()
	up := b.rec.start("server.upload", sp)
	for off := 0; off < len(u.bytes); off += chunkBytes {
		end := min(off+chunkBytes, len(u.bytes))
		path := fmt.Sprintf("/v1/workloads/%s/chunks?offset=%d", u.name, off)
		code, body, err := c.do(ctx, http.MethodPost, path, u.bytes[off:end])
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("upload %s at %d: %d %v %s", u.name, off, code, err, body)
		}
	}
	b.rec.end(up)
	complete := time.Now()
	job := b.rec.start("ingest.job", sp)
	code, body, err := c.do(ctx, http.MethodPost, "/v1/workloads/"+u.name+"/chunks?complete=1", []byte{})
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("complete %s: %d %v %s", u.name, code, err, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" {
			return fmt.Errorf("ingest job %s for %s: %s %s", st.ID, u.name, st.State, st.Error)
		}
		if err := c.getJSON(ctx, "/v1/jobs/"+st.ID+"?wait=30s", &st); err != nil {
			return err
		}
	}
	u.ingest = time.Since(complete)
	b.rec.end(job)
	read := b.rec.start("artifact.fig5", sp)
	t := time.Now()
	code, _, err = c.do(ctx, http.MethodGet, "/v1/workloads/"+u.name+"/artifacts/fig5", nil)
	u.fig5 = time.Since(t)
	u.answer = time.Since(start)
	u.cpu = c.cpuSeconds() - cpu0
	b.rec.end(read)
	b.tally.op(err == nil && code == http.StatusOK, "fig5 for %s: %d %v", u.name, code, err)

	if err := c.getJSON(ctx, "/v1/jobs/"+st.ID+"/result", &u.result); err != nil {
		return err
	}
	if err := c.getJSON(ctx, "/v1/workloads/"+u.name, &u.source); err != nil {
		return err
	}
	var sig struct {
		SHA256 string `json:"sha256"`
	}
	if err := c.getJSON(ctx, "/v1/workloads/"+u.name+"/signature", &sig); err != nil {
		return err
	}
	u.sigSHA = sig.SHA256
	return nil
}

// replayed is an in-process serial replay of one trace, computed the way
// ingest defines it: warmup quarter excluded, signature over the whole
// stream, default core model.
type replayed struct {
	window  sim.HierarchyStats
	traffic workload.Traffic
	sigSHA  string
}

func serialReplay(name string, data []byte) (replayed, error) {
	all, err := trace.ReadAll(trace.NewBinaryReader(bytes.NewReader(data)))
	if err != nil {
		return replayed{}, err
	}
	eng, err := sim.NewSharded(sim.TableIConfig(), 1, 1)
	if err != nil {
		return replayed{}, err
	}
	acc := signature.NewAccumulator()
	eng.SetObserver(acc.Observe)
	warm := len(all) / 4
	ctx := context.Background()
	if err := eng.Replay(ctx, all[:warm]); err != nil {
		return replayed{}, err
	}
	at := eng.Snapshot()
	if err := eng.Replay(ctx, all[warm:]); err != nil {
		return replayed{}, err
	}
	w := eng.Snapshot().Sub(at)
	return replayed{
		window:  w,
		traffic: workload.Extrapolate(name, w.LLC().Reads, w.LLC().Writes, w.Accesses, ingest.DefaultMemOpsPerKiloInstr, ingest.DefaultIPC),
		sigSHA:  acc.Signature().SHA256(),
	}, nil
}

// checkRound compares every upload of a round with an in-process serial
// replay of the same bytes: the job's window statistics and signature,
// the served traffic and the served signature (an alias serves its
// canonical's), and the dedup decision. The first round also feeds the
// digest.
func (b *bench) checkRound(ups []upload, digest bool) error {
	ref := map[string]replayed{}
	for _, u := range ups {
		r, err := serialReplay(u.name, u.bytes)
		if err != nil {
			return err
		}
		ref[u.name] = r
	}
	canonical := ups[0].name // the zipf trace the near-duplicate aliases
	for _, u := range ups {
		r := ref[u.name]
		wantAlias := u.kind == "dup"
		served := u.name
		if wantAlias {
			served = canonical
		}
		ok := u.result.SignatureSHA256 == r.sigSHA &&
			u.result.Stats.LLC() == r.window.LLC() && u.result.Stats.Accesses == r.window.Accesses &&
			u.result.Deduped == wantAlias && (!wantAlias || u.result.AliasOf == canonical) &&
			u.source.Traffic == ref[served].traffic && u.sigSHA == ref[served].sigSHA
		b.tally.op(ok, "ingest %s: served traffic, signature, window stats or dedup decision differ from the serial replay", u.name)
		if digest {
			b.digest.add("sig."+u.kind, r.sigSHA)
			b.digest.add("sim.llc_misses."+u.kind, r.window.LLC().Misses())
			b.digest.add("traffic."+u.kind, fmt.Sprintf("%v", u.source.Traffic))
		}
	}
	return nil
}
