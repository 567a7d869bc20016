package main

// CLI tests for the jobs subcommand family, run against a real server
// on a loopback listener — the same wire format `coldtall serve` exposes.

import (
	"context"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coldtall"
	"coldtall/internal/server"
)

// startJobServer boots a store-backed server on a real listener and
// returns its base URL.
func startJobServer(t *testing.T) string {
	t.Helper()
	return startJobServerCfg(t, server.Config{})
}

// startJobServerCfg is startJobServer with a caller-supplied config
// (tenant files, quotas); the store dir and quiet logger are filled in.
func startJobServerCfg(t *testing.T, cfg server.Config) string {
	t.Helper()
	study := coldtall.NewStudy()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	cfg.Logger = log.New(io.Discard, "", 0)
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = time.Second
	}
	s, err := server.New(study, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Cancelling drains the server the way SIGTERM does: the listener
	// closes, in-flight requests finish, then the job pool stops.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return "http://" + ln.Addr().String()
}

// jobID pulls the leading job ID out of a printStatus line.
func jobID(t *testing.T, out string) string {
	t.Helper()
	fields := strings.Fields(out)
	if len(fields) == 0 || !strings.HasPrefix(fields[0], "j") {
		t.Fatalf("no job ID in output %q", out)
	}
	return fields[0]
}

func TestJobsSubmitStatusWait(t *testing.T) {
	url := startJobServer(t)

	// submit by artifact name (registry shorthand)
	var sub strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "submit", "table1"}, &sub); err != nil {
		t.Fatal(err)
	}
	id := jobID(t, sub.String())

	var st strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "status", id}, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.String(), id) {
		t.Errorf("status output %q missing job ID", st.String())
	}

	// wait streams the artifact CSV verbatim
	var res strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "-poll", "10ms", "wait", id}, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.String(), "parameter,value\n") {
		t.Errorf("wait output is not the table1 CSV: %q", res.String()[:min(len(res.String()), 60)])
	}

	var list strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "list"}, &list); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list.String(), id) || !strings.Contains(list.String(), "done") {
		t.Errorf("list output %q missing the finished job", list.String())
	}
}

func TestJobsSubmitSpecFile(t *testing.T) {
	url := startJobServer(t)
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"kind":"sweep","points":[{"cell":"SRAM"}],"benchmarks":["namd"]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var sub strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "submit", spec}, &sub); err != nil {
		t.Fatal(err)
	}
	id := jobID(t, sub.String())

	var res strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "-poll", "10ms", "wait", id}, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), `"benchmark": "namd"`) && !strings.Contains(res.String(), `"benchmark":"namd"`) {
		t.Errorf("sweep result JSON missing the benchmark row: %q", res.String())
	}
}

func TestJobsErrors(t *testing.T) {
	url := startJobServer(t)

	// id-taking verbs demand an ID
	for _, verb := range []string{"status", "wait", "cancel"} {
		var b strings.Builder
		err := run(bg, []string{"jobs", "-server", url, verb}, &b)
		if err == nil || !strings.Contains(err.Error(), "job ID is required") {
			t.Errorf("jobs %s without an ID: err = %v", verb, err)
		}
	}

	// unknown verb names itself
	var b strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "frobnicate"}, &b); err == nil || !strings.Contains(err.Error(), "frobnicate") {
		t.Errorf("unknown verb: err = %v", err)
	}

	// unknown job surfaces the server's 404
	if err := run(bg, []string{"jobs", "-server", url, "status", "jnope"}, &b); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job: err = %v", err)
	}

	// a bad spec surfaces the server's 400
	if err := run(bg, []string{"jobs", "-server", url, "submit", "/nonexistent/spec.json"}, &b); err == nil {
		t.Error("missing spec file should error")
	}

	// empty list renders cleanly
	var list strings.Builder
	if err := run(bg, []string{"jobs", "-server", url, "list"}, &list); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(list.String(), "no jobs") {
		t.Errorf("empty list output = %q", list.String())
	}
}
