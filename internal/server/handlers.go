package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"coldtall"
	"coldtall/internal/array"
	"coldtall/internal/explorer"
	"coldtall/internal/job"
	"coldtall/internal/workload"
)

// handleHealthz answers liveness probes; a draining server reports 503 so
// load balancers stop routing to it while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the Prometheus text exposition, refreshing the
// scrape-time store gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshStoreMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

// decode unmarshals a limited request body into v, mapping oversized bodies
// to 413 and malformed JSON to 400. It reports whether decoding succeeded.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// badRequest reports a client error with the parse/validation message.
func badRequest(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// handleCharacterize characterizes one design point: POST a PointSpec
// ({"cell":"PCM","corner":"optimistic","dies":8,"temperature_k":350}).
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	var spec explorer.PointSpec
	if !s.decode(w, r, &spec) {
		return
	}
	p, err := explorer.ParsePoint(spec)
	if err != nil {
		badRequest(w, err)
		return
	}
	key := "characterize|" + p.Key()
	s.serveCached(w, r, "application/json", key, 1, func(ctx context.Context) ([]byte, error) {
		res, err := s.study.Explorer().CharacterizeContext(ctx, p)
		if err != nil {
			return nil, err
		}
		return job.CharacterizePayload(p, res)
	})
}

// evaluateRequest pairs a design point with a benchmark.
type evaluateRequest struct {
	Point     explorer.PointSpec `json:"point"`
	Benchmark string             `json:"benchmark"`
}

// handleEvaluate evaluates one design point under one benchmark's traffic.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, err := explorer.ParsePoint(req.Point)
	if err != nil {
		badRequest(w, err)
		return
	}
	tr, err := s.workloads.Traffic(req.Benchmark)
	if err != nil {
		badRequest(w, err)
		return
	}
	key := "evaluate|" + p.Key() + "|" + tr.Benchmark
	s.serveCached(w, r, "application/json", key, 1, func(ctx context.Context) ([]byte, error) {
		ev, err := s.study.Explorer().EvaluateContext(ctx, p, tr)
		if err != nil {
			return nil, err
		}
		return job.EvaluatePayload(ev)
	})
}

// sweepRequest crosses design points with benchmarks (all 23 static
// benchmarks when the list is empty).
type sweepRequest struct {
	Points     []explorer.PointSpec `json:"points"`
	Benchmarks []string             `json:"benchmarks,omitempty"`
}

// handleSweep evaluates a points x benchmarks grid on the worker pool.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		badRequest(w, fmt.Errorf("sweep needs at least one design point"))
		return
	}
	if len(req.Points) > job.SweepGridLimit || len(req.Benchmarks) > job.SweepGridLimit {
		badRequest(w, fmt.Errorf("sweep grid too large: at most %d points and %d benchmarks per request", job.SweepGridLimit, job.SweepGridLimit))
		return
	}
	points := make([]explorer.DesignPoint, len(req.Points))
	keys := make([]string, 0, len(req.Points)+len(req.Benchmarks))
	for i, spec := range req.Points {
		p, err := explorer.ParsePoint(spec)
		if err != nil {
			badRequest(w, fmt.Errorf("points[%d]: %w", i, err))
			return
		}
		points[i] = p
		keys = append(keys, p.Key())
	}
	var traffics []workload.Traffic
	if len(req.Benchmarks) == 0 {
		traffics = workload.StaticTraffic()
		keys = append(keys, "ALL")
	} else {
		for i, name := range req.Benchmarks {
			tr, err := s.workloads.Traffic(name)
			if err != nil {
				badRequest(w, fmt.Errorf("benchmarks[%d]: %w", i, err))
				return
			}
			traffics = append(traffics, tr)
			keys = append(keys, tr.Benchmark)
		}
	}
	key := "sweep|" + strings.Join(keys, ";")
	cost := job.Spec{Kind: job.KindSweep, Points: req.Points, Benchmarks: req.Benchmarks}.Cost()
	s.serveCached(w, r, "application/json", key, cost, func(ctx context.Context) ([]byte, error) {
		grid, err := s.study.Explorer().EvaluateAllContext(ctx, points, traffics)
		if err != nil {
			return nil, err
		}
		return job.SweepPayload(grid)
	})
}

// paretoRow is one Pareto-optimal organization.
type paretoRow struct {
	Organization string  `json:"organization"`
	ReadLatencyS float64 `json:"read_latency_s"`
	WriteLatency float64 `json:"write_latency_s"`
	ReadEnergyJ  float64 `json:"read_energy_j"`
	WriteEnergyJ float64 `json:"write_energy_j"`
	FootprintM2  float64 `json:"footprint_m2"`
	LeakageW     float64 `json:"leakage_w"`
}

// paretoResponse is the front plus the search-space size it was reduced
// from.
type paretoResponse struct {
	Point       string      `json:"point"`
	SearchSpace int         `json:"search_space"`
	Front       []paretoRow `json:"front"`
}

// handlePareto returns the Pareto-optimal internal organizations of one
// design point across (read latency, mean access energy, footprint).
func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	var spec explorer.PointSpec
	if !s.decode(w, r, &spec) {
		return
	}
	p, err := explorer.ParsePoint(spec)
	if err != nil {
		badRequest(w, err)
		return
	}
	key := "pareto|" + p.Key()
	s.serveCached(w, r, "application/json", key, 1, func(ctx context.Context) ([]byte, error) {
		front, err := array.ParetoContext(ctx, p.ArrayConfig())
		if err != nil {
			return nil, err
		}
		resp := paretoResponse{Point: p.Label, SearchSpace: array.SearchSpaceSize()}
		for _, res := range front {
			resp.Front = append(resp.Front, paretoRow{
				Organization: res.Org.String(),
				ReadLatencyS: res.ReadLatency,
				WriteLatency: res.WriteLatency,
				ReadEnergyJ:  res.ReadEnergy,
				WriteEnergyJ: res.WriteEnergy,
				FootprintM2:  res.FootprintM2,
				LeakageW:     res.LeakagePower,
			})
		}
		return json.Marshal(resp)
	})
}

// artifactColumn is the wire form of one schema column.
type artifactColumn struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Unit string `json:"unit,omitempty"`
}

// artifactInfo describes one registry artifact: identity, paper mapping
// and typed column schema, without rows.
type artifactInfo struct {
	Name    string           `json:"name"`
	File    string           `json:"file"`
	Title   string           `json:"title"`
	Paper   string           `json:"paper,omitempty"`
	Columns []artifactColumn `json:"columns"`
}

func artifactInfoDTO(d coldtall.ArtifactDescriptor) artifactInfo {
	info := artifactInfo{
		Name:    d.Name,
		File:    d.File,
		Title:   d.Title,
		Paper:   d.Paper,
		Columns: make([]artifactColumn, len(d.Columns)),
	}
	for i, c := range d.Columns {
		info.Columns[i] = artifactColumn{Name: c.Name, Kind: c.Kind.String(), Unit: c.Unit}
	}
	return info
}

// artifactListResponse enumerates the registry in paper order.
type artifactListResponse struct {
	Artifacts []artifactInfo `json:"artifacts"`
}

// artifactResponse is the JSON form of a built artifact: its schema plus
// typed rows. Float cells encode as JSON numbers; NaN and ±Inf (spelled
// "+Inf" etc. in the CSV form) encode as null — report.FiniteOrNull.
type artifactResponse struct {
	artifactInfo
	Rows [][]any `json:"rows"`
}

// handleArtifactList serves the registry catalog: every artifact's name,
// file, title, paper mapping and typed schema. The catalog is static per
// build, so it is computed inline without touching the response cache.
func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	descriptors := coldtall.Artifacts().Descriptors()
	resp := artifactListResponse{Artifacts: make([]artifactInfo, len(descriptors))}
	for i, d := range descriptors {
		resp.Artifacts[i] = artifactInfoDTO(d)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// artifactFormat negotiates the response format: an explicit ?format=csv
// or ?format=json wins; otherwise an Accept header naming text/csv selects
// CSV and everything else defaults to JSON.
func artifactFormat(r *http.Request) (string, error) {
	switch format := r.URL.Query().Get("format"); format {
	case "json", "csv":
		return format, nil
	case "":
		if strings.Contains(r.Header.Get("Accept"), "text/csv") {
			return "csv", nil
		}
		return "json", nil
	default:
		return "", fmt.Errorf("unknown format %q (want json or csv)", format)
	}
}

// serveArtifact serves one registry artifact as JSON or CSV, built
// through the same registry table the CLI's export writes, so the two are
// always byte-for-byte consistent. With a workload (a canonical registry
// name) it serves the traffic-dependent artifact restricted to that
// workload. The cache key is per (workload, artifact, format), so the
// generic route and the figure/table aliases share cache entries, and an
// alias shares its canonical workload's. Registry entries are never
// mutated in place, so a cached rendering can never go stale against its
// workload's traffic.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, name, workload string) {
	d, ok := coldtall.Artifacts().Lookup(name)
	if workload != "" && (!ok || !coldtall.IsTrafficArtifact(d.Name)) {
		http.Error(w, fmt.Sprintf("artifact %q cannot be rendered per-workload (want one of %v)",
			name, coldtall.TrafficArtifactNames()), http.StatusNotFound)
		return
	}
	if !ok {
		http.Error(w, fmt.Sprintf("unknown artifact %q (see GET /v1/artifacts for the catalog)", name), http.StatusNotFound)
		return
	}
	format, err := artifactFormat(r)
	if err != nil {
		badRequest(w, err)
		return
	}
	contentType := "application/json"
	if format == "csv" {
		contentType = "text/csv; charset=utf-8"
	}
	var key string
	if workload == "" {
		key = "artifact|" + d.Name + "|" + format
	} else {
		key = "workload-artifact|" + workload + "|" + d.Name + "|" + format
	}
	cost := job.Spec{Kind: job.KindArtifact, Artifact: d.Name}.Cost()
	s.serveCached(w, r, contentType, key, cost, func(ctx context.Context) ([]byte, error) {
		t, err := job.ArtifactTable(s.study.WithContext(ctx), d.Name, workload)
		if err != nil {
			return nil, err
		}
		if format == "csv" {
			return job.ArtifactCSV(t)
		}
		rows := t.JSONRows()
		if rows == nil {
			rows = [][]any{}
		}
		return json.Marshal(artifactResponse{artifactInfo: artifactInfoDTO(d), Rows: rows})
	})
}

// handleArtifactByName serves GET /v1/artifacts/{name}; name may be the
// registry name ("fig1") or the export file name ("fig1.csv").
func (s *Server) handleArtifactByName(w http.ResponseWriter, r *http.Request) {
	s.serveArtifact(w, r, r.PathValue("name"), "")
}

// aliasNumbers lists the registry numbers behind a fig/table alias prefix,
// for the 404 message ("1, 3, 4, 5, 6, 7").
func aliasNumbers(prefix string) string {
	var nums []string
	for _, name := range coldtall.Artifacts().Names() {
		if rest, ok := strings.CutPrefix(name, prefix); ok && rest != "" {
			nums = append(nums, rest)
		}
	}
	return strings.Join(nums, ", ")
}

// handleFigure and handleTable are thin aliases onto the artifact registry
// kept for URL stability: /v1/figures/3 is /v1/artifacts/fig3.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.serveAlias(w, r, "figure", "fig")
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	s.serveAlias(w, r, "table", "table")
}

func (s *Server) serveAlias(w http.ResponseWriter, r *http.Request, kind, prefix string) {
	n := r.PathValue("n")
	name := prefix + n
	if _, ok := coldtall.Artifacts().Lookup(name); !ok {
		http.Error(w, fmt.Sprintf("unknown %s %q (the paper has %ss %s)", kind, n, kind, aliasNumbers(prefix)), http.StatusNotFound)
		return
	}
	s.serveArtifact(w, r, name, "")
}
