package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coldtall/internal/cluster"
	"coldtall/internal/explorer"
)

// postToken is post with the worker auth header attached.
func postToken(t *testing.T, h http.Handler, path, token, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set(cluster.WorkerTokenHeader, token)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestClusterSurfaceNotMountedWithoutCoordinator(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if s.coord != nil {
		t.Fatal("non-coordinator server exposed a coordinator")
	}
	rr := post(t, s.Handler(), "/v1/cluster/register", `{"version":"x"}`)
	if rr.Code != http.StatusNotFound {
		t.Errorf("/v1/cluster/register on a plain server = %d, want 404", rr.Code)
	}
}

func TestClusterSurfaceAuthAndMetrics(t *testing.T) {
	const token = "s3cret"
	s, _ := newTestServer(t, Config{Coordinator: true, WorkerToken: token})
	h := s.Handler()
	if s.coord == nil {
		t.Fatal("coordinator server did not build a coordinator")
	}

	// Every cluster route sits behind the shared worker token.
	if rr := postToken(t, h, "/v1/cluster/lease", "", `{"worker_id":"w1"}`); rr.Code != http.StatusUnauthorized {
		t.Errorf("unauthenticated lease = %d, want 401", rr.Code)
	}
	if rr := postToken(t, h, "/v1/cluster/lease", "wrong", `{"worker_id":"w1"}`); rr.Code != http.StatusUnauthorized {
		t.Errorf("wrong-token lease = %d, want 401", rr.Code)
	}

	// Authenticated but unknown workers are told to re-register.
	if rr := postToken(t, h, "/v1/cluster/lease", token, `{"worker_id":"nobody"}`); rr.Code != http.StatusNotFound {
		t.Errorf("unknown-worker lease = %d, want 404", rr.Code)
	}

	// The registration handshake pins the physics model version.
	if rr := postToken(t, h, "/v1/cluster/register", token, `{"version":"stale"}`); rr.Code != http.StatusConflict {
		t.Errorf("version-mismatch register = %d, want 409", rr.Code)
	}
	rr := postToken(t, h, "/v1/cluster/register", token,
		fmt.Sprintf(`{"name":"t","version":%q}`, explorer.ModelVersion))
	if rr.Code != http.StatusOK {
		t.Fatalf("register = %d, body = %s", rr.Code, rr.Body)
	}
	var reg cluster.RegisterResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.WorkerID == "" || reg.Cooler == "" {
		t.Fatalf("register response missing identity/environment: %+v", reg)
	}

	// A registered worker with no runs polls into 204 No Content.
	if rr := postToken(t, h, "/v1/cluster/lease", token,
		fmt.Sprintf(`{"worker_id":%q}`, reg.WorkerID)); rr.Code != http.StatusNoContent {
		t.Errorf("idle lease poll = %d, want 204", rr.Code)
	}

	// The status endpoint is authenticated too, and /metrics mirrors the
	// coordinator's stats at scrape time.
	if rr := get(t, h, "/v1/cluster/status"); rr.Code != http.StatusUnauthorized {
		t.Errorf("unauthenticated status = %d, want 401", rr.Code)
	}
	body := get(t, h, "/metrics").Body.String()
	for _, series := range []string{
		"coldtall_cluster_workers 1",
		"coldtall_cluster_workers_registered_total 1",
		"coldtall_cluster_leases_pending 0",
	} {
		if !strings.Contains(body, series+"\n") {
			t.Errorf("/metrics missing %q", series)
		}
	}
}
