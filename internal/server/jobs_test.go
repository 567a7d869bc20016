package server

// End-to-end tests of the persistence + async-job layer: job lifecycle
// over HTTP, async/sync artifact byte-identity, store-warmed restarts, and
// the BenchmarkWarmRestart measurement EXPERIMENTS.md reports.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coldtall"
	"coldtall/internal/job"
)

// newStoreServer builds a server persisting into dir.
func newStoreServer(t testing.TB, dir string) *Server {
	t.Helper()
	study := coldtall.NewStudy()
	s, err := New(study, Config{StoreDir: dir, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.jobs.Close)
	return s
}

// pollJob polls the status endpoint until the job is terminal.
func pollJob(t *testing.T, h http.Handler, id string) job.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rr := get(t, h, "/v1/jobs/"+id)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d: %s", id, rr.Code, rr.Body)
		}
		var st job.Status
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return job.Status{}
}

func TestJobLifecycleOverHTTP(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.Handler()

	// Submit: 202 with a Location header and a queued/running status.
	rr := post(t, h, "/v1/jobs", `{"kind":"sweep","points":[{"cell":"SRAM"}],"benchmarks":["namd"]}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || rr.Header().Get("Location") != "/v1/jobs/"+sub.ID {
		t.Fatalf("submit status %+v, Location %q", sub, rr.Header().Get("Location"))
	}

	// Resubmitting the same spec is idempotent.
	rr2 := post(t, h, "/v1/jobs", `{"kind":"sweep","points":[{"cell":"SRAM"}],"benchmarks":["namd"]}`)
	var sub2 job.Status
	if err := json.Unmarshal(rr2.Body.Bytes(), &sub2); err != nil {
		t.Fatal(err)
	}
	if sub2.ID != sub.ID {
		t.Errorf("resubmission created a second job: %s vs %s", sub2.ID, sub.ID)
	}

	st := pollJob(t, h, sub.ID)
	if st.State != job.StateDone || st.Done != st.Total {
		t.Fatalf("final status %+v", st)
	}

	// The job table lists it.
	var list struct {
		Jobs []job.Status `json:"jobs"`
	}
	if err := json.Unmarshal(get(t, h, "/v1/jobs").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Errorf("job list = %+v", list.Jobs)
	}

	// The result is sweep JSON with one row.
	res := get(t, h, "/v1/jobs/"+sub.ID+"/result")
	if res.Code != http.StatusOK || !strings.HasPrefix(res.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("result = %d %q", res.Code, res.Header().Get("Content-Type"))
	}
	var sweep struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(res.Body.Bytes(), &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != 1 || sweep.Rows[0]["benchmark"] != "namd" {
		t.Errorf("sweep rows = %+v", sweep.Rows)
	}
}

func TestJobEndpointErrors(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.Handler()

	if rr := post(t, h, "/v1/jobs", `{"kind":"nope"}`); rr.Code != http.StatusBadRequest {
		t.Errorf("bad kind = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/jobs/jdoesnotexist"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job status = %d", rr.Code)
	}
	if rr := get(t, h, "/v1/jobs/jdoesnotexist/result"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job result = %d", rr.Code)
	}
	req := httptest.NewRequest(http.MethodDelete, "/v1/jobs/jdoesnotexist", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusNotFound {
		t.Errorf("unknown job cancel = %d", rr.Code)
	}
}

// TestAsyncArtifactMatchesSyncEndpoint is the byte-identity acceptance
// criterion: the async job's artifact payload equals the synchronous
// /v1/artifacts/{name}?format=csv response byte for byte.
func TestAsyncArtifactMatchesSyncEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.Handler()

	sync := get(t, h, "/v1/artifacts/fig1?format=csv")
	if sync.Code != http.StatusOK {
		t.Fatalf("sync artifact = %d", sync.Code)
	}

	rr := post(t, h, "/v1/jobs", `{"kind":"artifact","artifact":"fig1"}`)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if st := pollJob(t, h, sub.ID); st.State != job.StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	res := get(t, h, "/v1/jobs/"+sub.ID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("result = %d", res.Code)
	}
	if res.Body.String() != sync.Body.String() {
		t.Error("async artifact CSV diverged from the synchronous endpoint")
	}
	if ct := res.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("result content type = %q", ct)
	}
}

// TestAsyncRequestKindsMatchSync pins the async form of every
// request-sized endpoint to the synchronous one: the /v1/jobs/{id}/result
// bytes equal the POST response body for characterize, evaluate (static
// benchmark and ingested generator workload) and sweep (explicit benchmark
// list and the empty list meaning all 23 static benchmarks).
func TestAsyncRequestKindsMatchSync(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.Handler()
	uploadWorkload(t, h, genIngestSpec("gen"))

	cases := []struct {
		name, path, body, spec string
	}{
		{"characterize", "/v1/characterize",
			`{"cell":"PCM","corner":"optimistic","dies":8,"temperature_k":350}`,
			`{"kind":"characterize","points":[{"cell":"PCM","corner":"optimistic","dies":8,"temperature_k":350}]}`},
		{"evaluate/static", "/v1/evaluate",
			`{"point":{"cell":"SRAM","temperature_k":77},"benchmark":"mcf"}`,
			`{"kind":"evaluate","points":[{"cell":"SRAM","temperature_k":77}],"benchmarks":["mcf"]}`},
		{"evaluate/ingested", "/v1/evaluate",
			`{"point":{"cell":"3T-eDRAM"},"benchmark":"gen"}`,
			`{"kind":"evaluate","points":[{"cell":"3T-eDRAM"}],"benchmarks":["gen"]}`},
		{"sweep/explicit", "/v1/sweep",
			`{"points":[{"cell":"SRAM"},{"cell":"3T-eDRAM","temperature_k":77}],"benchmarks":["namd","gen"]}`,
			`{"kind":"sweep","points":[{"cell":"SRAM"},{"cell":"3T-eDRAM","temperature_k":77}],"benchmarks":["namd","gen"]}`},
		{"sweep/all", "/v1/sweep",
			`{"points":[{"cell":"SRAM","temperature_k":77}]}`,
			`{"kind":"sweep","points":[{"cell":"SRAM","temperature_k":77}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sync := post(t, h, tc.path, tc.body)
			if sync.Code != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", tc.path, sync.Code, sync.Body)
			}
			id := submitJobHTTP(t, h, tc.spec)
			if st := pollJob(t, h, id); st.State != job.StateDone {
				t.Fatalf("job state = %s (%s)", st.State, st.Error)
			}
			res := get(t, h, "/v1/jobs/"+id+"/result")
			if res.Code != http.StatusOK {
				t.Fatalf("result = %d: %s", res.Code, res.Body)
			}
			if res.Body.String() != sync.Body.String() {
				t.Errorf("async result diverged from POST %s\nsync:  %s\nasync: %s", tc.path, sync.Body, res.Body)
			}
			if got, want := res.Header().Get("Content-Type"), sync.Header().Get("Content-Type"); got != want {
				t.Errorf("result content type = %q, sync %q", got, want)
			}
		})
	}
}

// TestStoreWarmedRestart is the restart acceptance criterion: a second
// server over the same store directory serves a previously-built artifact
// without recomputation (zero optimizer invocations on its cold explorer).
func TestStoreWarmedRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir)
	first := get(t, s1.Handler(), "/v1/artifacts/fig1?format=csv")
	if first.Code != http.StatusOK {
		t.Fatalf("first boot artifact = %d", first.Code)
	}
	if calls := s1.study.Explorer().OptimizeCalls(); calls == 0 {
		t.Fatal("first boot was supposed to compute (test setup broken)")
	}

	// "Restart": a brand-new server + study over the same directory.
	s2 := newStoreServer(t, dir)
	second := get(t, s2.Handler(), "/v1/artifacts/fig1?format=csv")
	if second.Code != http.StatusOK {
		t.Fatalf("second boot artifact = %d", second.Code)
	}
	if second.Body.String() != first.Body.String() {
		t.Error("store-warmed response diverged from the original")
	}
	if calls := s2.study.Explorer().OptimizeCalls(); calls != 0 {
		t.Errorf("store-warmed boot ran the optimizer %d times, want 0", calls)
	}
	if second.Header().Get("X-Cache") != "hit" {
		t.Errorf("store-warmed response X-Cache = %q, want hit (warm-seeded LRU)", second.Header().Get("X-Cache"))
	}
}

// TestCharacterizationPersistsAcrossRestart: even when the exact response
// was never cached, a restarted server reuses persisted characterizations
// — a new benchmark against a known point costs arithmetic, not an
// optimizer search.
func TestCharacterizationPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir)
	if rr := post(t, s1.Handler(), "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"namd"}`); rr.Code != http.StatusOK {
		t.Fatalf("first boot evaluate = %d: %s", rr.Code, rr.Body)
	}

	s2 := newStoreServer(t, dir)
	// Different benchmark, same point: the response cache misses but the
	// characterization comes from the store.
	if rr := post(t, s2.Handler(), "/v1/evaluate", `{"point":{"cell":"SRAM"},"benchmark":"lbm"}`); rr.Code != http.StatusOK {
		t.Fatalf("second boot evaluate = %d: %s", rr.Code, rr.Body)
	}
	if calls := s2.study.Explorer().OptimizeCalls(); calls != 0 {
		t.Errorf("restarted server ran the optimizer %d times for a stored point, want 0", calls)
	}
}

// TestJobSurvivesServerRestart: the HTTP-level crash-recovery story — a
// sweep job interrupted by a dying server completes on the next boot from
// its checkpoints (the cell-level accounting is pinned in internal/job).
func TestJobSurvivesServerRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newStoreServer(t, dir)
	body := `{"kind":"sweep","points":[{"cell":"SRAM"},{"cell":"3T-eDRAM","temperature_k":77}],"benchmarks":["namd"]}`
	rr := post(t, s1.Handler(), "/v1/jobs", body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rr.Code, rr.Body)
	}
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	// Let it finish, then forge the record back to "running" — the state
	// a SIGKILL'd process leaves on disk (checkpoints intact, record
	// never transitioned). The next boot must resume and complete it.
	if st := pollJob(t, s1.Handler(), sub.ID); st.State != job.StateDone {
		t.Fatalf("first boot job state = %s", st.State)
	}
	rec := fmt.Sprintf(`{"id":%q,"spec":{"kind":"sweep","points":[{"cell":"SRAM"},{"cell":"3T-eDRAM","temperature_k":77}],"benchmarks":["namd"]},"state":"running","done":2,"total":2}`, sub.ID)
	if err := s1.st.Put("job|"+sub.ID, []byte(rec)); err != nil {
		t.Fatal(err)
	}
	s1.jobs.Close()

	s2 := newStoreServer(t, dir)
	st := pollJob(t, s2.Handler(), sub.ID)
	if st.State != job.StateDone || st.Done != 2 {
		t.Fatalf("recovered job status = %+v", st)
	}
	if st.Resumed != 2 {
		t.Errorf("recovered job restored %d cells, want 2 (all from checkpoints)", st.Resumed)
	}
	if calls := s2.study.Explorer().OptimizeCalls(); calls != 0 {
		t.Errorf("recovered job ran the optimizer %d times, want 0 (every cell checkpointed)", calls)
	}
	res := get(t, s2.Handler(), "/v1/jobs/"+sub.ID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("recovered result = %d", res.Code)
	}
}

// TestEvictionMetricTicks: overflowing the response cache surfaces in
// coldtall_cache_evictions_total.
func TestEvictionMetricTicks(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: 16})
	t.Cleanup(s.jobs.Close)
	// Fill well past capacity straight through the cache (the handler
	// path would need dozens of sweeps; the metric hookup is what's under
	// test).
	for i := 0; i < 64; i++ {
		s.respCache.Add(fmt.Sprintf("key-%d", i), []byte("x"))
	}
	if s.met.evictions.Value() == 0 {
		t.Error("coldtall_cache_evictions_total never ticked under capacity pressure")
	}
	body := get(t, s.Handler(), "/metrics").Body.String()
	if !strings.Contains(body, "coldtall_cache_evictions_total") {
		t.Error("evictions counter missing from the exposition")
	}
}

// TestJobMetrics: the transition hook feeds the running gauge and
// terminal-state counters.
func TestJobMetrics(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	t.Cleanup(s.jobs.Close)
	h := s.Handler()
	rr := post(t, h, "/v1/jobs", `{"kind":"artifact","artifact":"table1"}`)
	var sub job.Status
	if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	pollJob(t, h, sub.ID)
	body := get(t, h, "/metrics").Body.String()
	if !strings.Contains(body, `coldtall_jobs_total{state="done"} 1`) {
		t.Errorf("metrics missing done-job counter:\n%s", body)
	}
	if !strings.Contains(body, "coldtall_jobs_running 0") {
		t.Error("jobs-running gauge did not return to 0")
	}
}

// BenchmarkWarmRestart quantifies the store's boot-time win for
// EXPERIMENTS.md: time-to-first-Table-II on a cold boot (full
// characterization sweep) vs a store-warmed boot (one disk read into the
// LRU). Run with -benchtime=1x: each iteration is one boot.
func BenchmarkWarmRestart(b *testing.B) {
	dir := b.TempDir()
	// Populate the store once (this cost is the cold path, measured
	// below).
	seed := newStoreServer(b, dir)
	if rr := benchGet(b, seed.Handler(), "/v1/artifacts/table2?format=csv"); rr.Code != http.StatusOK {
		b.Fatalf("seed boot = %d", rr.Code)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newStoreServer(b, b.TempDir()) // empty store: nothing to warm
			b.StartTimer()
			if rr := benchGet(b, s.Handler(), "/v1/artifacts/table2?format=csv"); rr.Code != http.StatusOK {
				b.Fatalf("cold boot = %d", rr.Code)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := newStoreServer(b, dir)
			b.StartTimer()
			if rr := benchGet(b, s.Handler(), "/v1/artifacts/table2?format=csv"); rr.Code != http.StatusOK {
				b.Fatalf("warm boot = %d", rr.Code)
			}
		}
	})
}

func benchGet(b *testing.B, h http.Handler, path string) *httptest.ResponseRecorder {
	b.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}
