// Package job is the async sweep subsystem: long-running work (evaluation
// grids, artifact builds) submitted once, identified by a deterministic job
// ID, executed on background workers, and observable while it runs. Jobs
// checkpoint completed cells through the persistent result store
// (internal/store), so a killed process resumes a half-finished sweep from
// its checkpoint instead of recomputing it; failed cells retry with capped
// exponential backoff; cancellation propagates through the repository's
// context plumbing. Standard library only.
package job

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"coldtall"
	"coldtall/internal/explorer"
	"coldtall/internal/ingest"
	"coldtall/internal/workload"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is one of the five known states (used when
// re-reading persisted records, which may come from a newer or corrupted
// file).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// ParseState validates a state string arriving from the API surface
// (the ?state= listing filter).
func ParseState(s string) (State, error) {
	if st := State(s); st.valid() {
		return st, nil
	}
	return "", fmt.Errorf("job: unknown state %q (want %s, %s, %s, %s, or %s)",
		s, StateQueued, StateRunning, StateDone, StateFailed, StateCancelled)
}

// Kind discriminates what a job computes. A kind that is the async form
// of an endpoint has its result payload built by the same function as that
// endpoint's response body (see payload.go).
const (
	// KindSweep evaluates a points x benchmarks grid (the async form of
	// POST /v1/sweep; payload built by the same function as its body).
	KindSweep = "sweep"
	// KindArtifact builds one registry artifact as CSV (the async form of
	// GET /v1/artifacts/{name}?format=csv, or with a workload of
	// GET /v1/workloads/{workload}/artifacts/{name}?format=csv; payload
	// built by the same function as their CSV bodies).
	KindArtifact = "artifact"
	// KindIngest runs one workload ingestion (the async form of
	// POST /v1/workloads): materialize, replay, register.
	KindIngest = "ingest"
	// KindCharacterize characterizes one design point (Points[0]; the
	// async form of POST /v1/characterize; payload built by the same
	// function as its body).
	KindCharacterize = "characterize"
	// KindEvaluate evaluates one (Points[0], Benchmarks[0]) cell (the
	// async form of POST /v1/evaluate; payload built by the same function
	// as its body).
	KindEvaluate = "evaluate"
	// KindDistill fits a compact generator spec to the Workload's stored
	// trace (the async form of POST /v1/workloads/{name}/distill).
	KindDistill = "distill"
)

// Class is a job's scheduling priority class. Interactive jobs — the
// async forms of the sub-second request/response endpoints — always
// dispatch ahead of queued bulk work, so one tenant's grid sweep cannot
// delay another tenant's single characterization.
type Class string

const (
	ClassInteractive Class = "interactive"
	ClassBulk        Class = "bulk"
)

// Class derives the priority class from the kind: characterize and
// evaluate are interactive; sweep, artifact and ingest are bulk.
func (sp Spec) Class() Class {
	switch sp.Kind {
	case KindCharacterize, KindEvaluate:
		return ClassInteractive
	}
	return ClassBulk
}

// Spec describes a job. Equal specs canonicalize to equal job IDs, so
// resubmitting the same work returns the existing job instead of queueing a
// duplicate.
type Spec struct {
	// Kind selects the computation: KindSweep or KindArtifact.
	Kind string `json:"kind"`

	// Points and Benchmarks define a sweep grid (Kind == "sweep"); an
	// empty benchmark list means all static benchmarks.
	Points     []explorer.PointSpec `json:"points,omitempty"`
	Benchmarks []string             `json:"benchmarks,omitempty"`

	// Artifact names a registry artifact (Kind == "artifact").
	Artifact string `json:"artifact,omitempty"`

	// Workload, when set on an artifact job, restricts a traffic-dependent
	// artifact to one workload (static or ingested) instead of the full
	// suite; on a distill job it names the workload to distill.
	Workload string `json:"workload,omitempty"`

	// Ingest is the ingestion request (Kind == "ingest").
	Ingest *ingest.Spec `json:"ingest,omitempty"`
}

// SweepGridLimit bounds a sweep's points and its benchmarks, for
// POST /v1/sweep and sweep jobs alike: a request beyond it is a client
// error, not a reason to let one grid monopolize the workers.
const SweepGridLimit = 64

// staticBenchmarks is the size of the static suite an empty sweep
// benchmark list expands to.
var staticBenchmarks = len(workload.StaticTraffic())

// artifactCosts is each registry artifact's point count. The counts never
// change, and the artifact handler prices every request, cache hits
// included, so they are enumerated once.
var artifactCosts = sync.OnceValue(func() map[string]int {
	costs := map[string]int{}
	for _, d := range coldtall.Artifacts().Descriptors() {
		costs[d.Name] = len(coldtall.ArtifactPoints(d.Name))
	}
	return costs
})

// Cost is the spec's size in design-point evaluations, the unit tenant
// budgets are charged in: one per grid cell for a sweep (all static
// benchmarks when the list is empty), the points its renderer enumerates
// for an artifact, one for everything request-sized. A sweep's cost is
// also its job's progress total.
func (sp Spec) Cost() int {
	switch sp.Kind {
	case KindSweep:
		benches := len(sp.Benchmarks)
		if benches == 0 {
			benches = staticBenchmarks
		}
		return len(sp.Points) * benches
	case KindArtifact:
		// Already-cached characterizations make the real work cheaper,
		// never dearer.
		if n := artifactCosts()[sp.Artifact]; n > 0 {
			return n
		}
	}
	return 1
}

// ValidateWith checks the spec, resolving sweep points with the explorer's
// parser and benchmark/workload names through resolve (the same paths the
// synchronous endpoints use, so a spec rejected here would have been
// rejected there too).
func (sp Spec) ValidateWith(resolve func(string) (workload.Traffic, error)) error {
	switch sp.Kind {
	case KindSweep:
		if len(sp.Points) == 0 {
			return fmt.Errorf("job: sweep needs at least one design point")
		}
		if len(sp.Points) > SweepGridLimit || len(sp.Benchmarks) > SweepGridLimit {
			return fmt.Errorf("job: sweep grid too large: at most %d points and %d benchmarks", SweepGridLimit, SweepGridLimit)
		}
		for i, spec := range sp.Points {
			if _, err := explorer.ParsePoint(spec); err != nil {
				return fmt.Errorf("job: points[%d]: %w", i, err)
			}
		}
		for i, name := range sp.Benchmarks {
			if _, err := resolve(name); err != nil {
				return fmt.Errorf("job: benchmarks[%d]: %w", i, err)
			}
		}
		return nil
	case KindArtifact:
		if sp.Artifact == "" {
			return fmt.Errorf("job: artifact job needs an artifact name")
		}
		if sp.Workload != "" {
			if _, err := resolve(sp.Workload); err != nil {
				return fmt.Errorf("job: workload: %w", err)
			}
		}
		return nil
	case KindIngest:
		if sp.Ingest == nil {
			return fmt.Errorf("job: ingest job needs an ingest spec")
		}
		return sp.Ingest.Validate()
	case KindCharacterize:
		if len(sp.Points) != 1 {
			return fmt.Errorf("job: characterize needs exactly one design point")
		}
		if _, err := explorer.ParsePoint(sp.Points[0]); err != nil {
			return fmt.Errorf("job: point: %w", err)
		}
		return nil
	case KindEvaluate:
		if len(sp.Points) != 1 || len(sp.Benchmarks) != 1 {
			return fmt.Errorf("job: evaluate needs exactly one design point and one benchmark")
		}
		if _, err := explorer.ParsePoint(sp.Points[0]); err != nil {
			return fmt.Errorf("job: point: %w", err)
		}
		if _, err := resolve(sp.Benchmarks[0]); err != nil {
			return fmt.Errorf("job: benchmark: %w", err)
		}
		return nil
	case KindDistill:
		if sp.Workload == "" {
			return fmt.Errorf("job: distill job needs a workload name")
		}
		if _, err := resolve(sp.Workload); err != nil {
			return fmt.Errorf("job: workload: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("job: unknown kind %q (want %q, %q, %q, %q, %q, or %q)", sp.Kind, KindSweep, KindArtifact, KindIngest, KindCharacterize, KindEvaluate, KindDistill)
	}
}

// id derives the deterministic job ID: "j" plus 16 hex characters of the
// SHA-256 over the canonical spec rendering. Content-addressed IDs make
// submission idempotent and give a restarted process the same name for the
// same work.
func (sp Spec) id() string {
	canon := struct {
		Kind       string               `json:"kind"`
		Points     []explorer.PointSpec `json:"points,omitempty"`
		Benchmarks []string             `json:"benchmarks,omitempty"`
		Artifact   string               `json:"artifact,omitempty"`
		Workload   string               `json:"workload,omitempty"`
		Ingest     *ingest.Spec         `json:"ingest,omitempty"`
	}{sp.Kind, sp.Points, sp.Benchmarks, sp.Artifact, sp.Workload, sp.Ingest}
	b, err := json.Marshal(canon)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it. Guard anyway.
		b = []byte(fmt.Sprintf("%#v", sp))
	}
	sum := sha256.Sum256(b)
	return "j" + hex.EncodeToString(sum[:8])
}

// Status is a point-in-time snapshot of a job, JSON-shaped for the
// /v1/jobs endpoints.
type Status struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	// Done and Total report progress in grid cells (artifact jobs are a
	// single cell).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the failure message in state "failed".
	Error string `json:"error,omitempty"`
	// Artifact names the artifact for artifact jobs.
	Artifact string `json:"artifact,omitempty"`
	// Workload names the restricting workload on artifact jobs, or the
	// registered workload on ingest jobs.
	Workload string `json:"workload,omitempty"`
	// Resumed counts cells restored from checkpoints rather than computed
	// in this process — nonzero after a crash-recovery restart.
	Resumed int `json:"resumed,omitempty"`
	// Tenant names the submitting tenant; empty for jobs submitted
	// before multi-tenancy or through the tenantless Submit path.
	Tenant string `json:"tenant,omitempty"`
	// Class is the scheduling priority class derived from the kind.
	Class Class `json:"class,omitempty"`
}

// record is the persisted form of a job (store key "job|<id>"). The result
// payload is stored separately under "jobresult|<id>" so status reads stay
// small.
type record struct {
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	State  State  `json:"state"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Error  string `json:"error,omitempty"`
	CType  string `json:"content_type,omitempty"`
	HasRes bool   `json:"has_result,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// Store key namespaces. Job bookkeeping shares the result store with the
// characterization and response-cache namespaces; prefixes keep them
// disjoint.
const (
	recordPrefix = "job|"
	resultPrefix = "jobresult|"
	cellPrefix   = "jobcell|"
)

func recordKey(id string) string { return recordPrefix + id }
func resultKey(id string) string { return resultPrefix + id }

// cellKey names one checkpointed grid cell: the job ID plus the cell's
// design-point and benchmark keys (not indices), so a checkpoint is only
// ever replayed into the exact (point, benchmark) cell it was computed for.
func cellKey(id, pointKey, benchmark string) string {
	return cellPrefix + id + "|" + pointKey + "|" + benchmark
}

// sortStatuses orders job listings deterministically by ID.
func sortStatuses(list []Status) {
	sort.Slice(list, func(i, j int) bool { return strings.Compare(list[i].ID, list[j].ID) < 0 })
}
