package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// childEnv is the environment of every program the benchmark starts:
// GOMAXPROCS pinned to nproc.
func (b *bench) childEnv() []string {
	env := []string{}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(b.cfg.nproc))
}

// freshDir makes a new empty directory under the run's temporary tree and
// asserts it is empty: no store, export or cache carries over between
// samples.
func (b *bench) freshDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(b.cfg.tmp, prefix)
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	if len(ents) != 0 {
		b.tally.fail("first touch: %s is not empty", dir)
	}
	return dir, nil
}

// firstTouch asserts that pid is a process no earlier sample ran in.
func (b *bench) firstTouch(pid int, what string) {
	b.mu.Lock()
	seen := b.pids[pid]
	b.pids[pid] = true
	b.mu.Unlock()
	if seen {
		b.tally.fail("first touch: %s ran in process %d, which an earlier sample used", what, pid)
	}
}

// Peak RSS needs care. Go starts a child with vfork semantics, so until
// the exec the child runs in the harness's address space, and at the exec
// Linux folds that address space's peak RSS into the new program's
// rusage. A child's rusage Maxrss is therefore at least the harness's own
// peak, which grows as the harness keeps traces and bodies to check. So a
// serve child's peak RSS is read from its /proc status (VmHWM) before it
// is stopped, and a process that runs to completion is started through a
// small spawn helper, a fresh process of the harness itself, which reports
// the coldtall process's own rusage (its Maxrss is floored only at the
// helper's few MiB).

// spawnReport is what the spawn helper reports about the process it ran.
type spawnReport struct {
	PID       int    `json:"pid"`
	WallNS    int64  `json:"wall_ns"`
	CPUNS     int64  `json:"cpu_ns"`
	MaxRSSKiB int64  `json:"maxrss_kib"`
	Err       string `json:"err,omitempty"`
}

// spawnMain is the spawn helper: it runs args with the helper's standard
// streams and environment, writes a spawnReport to file descriptor 3, and
// exits.
func spawnMain(args []string) {
	// The child is killed if the thread that started it dies.
	runtime.LockOSThread()
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var rep spawnReport
	start := time.Now()
	err := cmd.Start()
	if err == nil {
		rep.PID = cmd.Process.Pid
		err = cmd.Wait()
	}
	rep.WallNS = int64(time.Since(start))
	if ps := cmd.ProcessState; ps != nil {
		rep.CPUNS = int64(ps.UserTime() + ps.SystemTime())
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rep.MaxRSSKiB = ru.Maxrss
		}
	}
	if err != nil {
		rep.Err = err.Error()
	}
	_ = json.NewEncoder(os.NewFile(3, "report")).Encode(rep)
}

// runOnce runs one fresh coldtall process to completion, through the
// spawn helper, and returns its standard output, wall time and usage.
func (b *bench) runOnce(ctx context.Context, args ...string) (out []byte, wall time.Duration, u usage, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, usage{}, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"-spawn", b.cfg.bin}, args...)...)
	cmd.Env = b.childEnv()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	r, w, err := os.Pipe()
	if err != nil {
		return nil, 0, usage{}, err
	}
	defer r.Close()
	cmd.ExtraFiles = []*os.File{w}
	err = cmd.Start()
	w.Close()
	if err != nil {
		return nil, 0, usage{}, err
	}
	werr := cmd.Wait()
	var rep spawnReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, 0, usage{}, fmt.Errorf("coldtall %s: no spawn report: %v (%v)", strings.Join(args, " "), err, werr)
	}
	if rep.PID != 0 {
		b.firstTouch(rep.PID, args[0])
	}
	if werr != nil || rep.Err != "" {
		return nil, 0, usage{}, fmt.Errorf("coldtall %s: %v %s: %s", strings.Join(args, " "), werr, rep.Err, strings.TrimSpace(stderr.String()))
	}
	u = usage{cpu: time.Duration(rep.CPUNS), rssMiB: float64(rep.MaxRSSKiB) / 1024} // Linux reports KiB
	return stdout.Bytes(), time.Duration(rep.WallNS), u, nil
}

// usage is what a finished process cost: CPU time (user + system, which
// excludes time the hypervisor stole from the machine) and peak RSS.
type usage struct {
	cpu    time.Duration
	rssMiB float64
}

func usageOf(ps *os.ProcessState) usage {
	return usage{cpu: ps.UserTime() + ps.SystemTime()}
}

// selfCPU is this process's CPU time so far. It reads the process CPU-time
// clock, which is exact where getrusage only advances with the scheduler
// tick.
func selfCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// child is one running `coldtall serve` process, or (cmd nil) a client of
// a server running inside the harness.
type child struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{}
	err    error
}

// startServe boots a fresh serve child, with an empty store when
// withStore is set, and returns it with its set-up time: spawn until the
// first 200 from /healthz, which covers store open, warm seed and job
// Recover.
func (b *bench) startServe(ctx context.Context, withStore bool) (*child, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	n := strconv.Itoa(b.cfg.nproc)
	args := []string{"serve", "-addr", "127.0.0.1:" + port, "-workers", n, "-job-workers", n}
	if withStore {
		store, err := b.freshDir("store-")
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-store-dir", store)
	}
	cmd := exec.Command(b.cfg.bin, args...)
	cmd.Env = b.childEnv()
	c := &child{
		cmd:  cmd,
		base: "http://127.0.0.1:" + port,
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        b.cfg.nproc,
			MaxIdleConnsPerHost: b.cfg.nproc,
			MaxConnsPerHost:     b.cfg.nproc,
			DisableCompression:  true,
		}},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	b.mu.Lock()
	b.children = append(b.children, c)
	b.mu.Unlock()
	b.firstTouch(cmd.Process.Pid, "serve boot")

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := c.client.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("serve child exited during boot: %v", c.err)
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("serve child not healthy after 60s")
		}
	}
}

// bootSamples boots groups × perGroup fresh children on empty stores one
// after another, stopping each as soon as it is healthy, with a
// calibration run on either side of each group. It returns their set-up
// wall times and the calibrated CPU seconds each spent in all (boot and
// idle drain).
func (b *bench) bootSamples(ctx context.Context, sc *scaler, groups, perGroup int) (wall, cpu []float64, err error) {
	for g := 0; g < groups; g++ {
		if err := sc.before(ctx); err != nil {
			return nil, nil, err
		}
		var raw []float64
		for i := 0; i < perGroup; i++ {
			c, d, err := b.startServe(ctx, true)
			if err != nil {
				return nil, nil, err
			}
			wall = append(wall, d.Seconds())
			raw = append(raw, c.stop().cpu.Seconds())
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

// stop drains the child with SIGTERM (SIGKILL after 30 s), waits for it,
// and returns its usage; the peak RSS is read just before the signal.
func (c *child) stop() usage {
	var rss float64
	select {
	case <-c.done:
	default:
		rss = c.peakRSSMiB()
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(30 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
	c.client.CloseIdleConnections()
	u := usageOf(c.cmd.ProcessState)
	u.rssMiB = rss
	return u
}

// peakRSSMiB is the running child's peak resident set (VmHWM).
func (c *child) peakRSSMiB() float64 {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024
		}
	}
	return 0
}

// closeChildren stops every child still running; main calls it on every
// path so no process outlives the benchmark.
func (b *bench) closeChildren() {
	b.mu.Lock()
	cs := b.children
	b.children = nil
	b.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// cpuSeconds is the child's user+system CPU time so far, from /proc; 0
// for a server running inside the harness.
func (c *child) cpuSeconds() float64 {
	if c.cmd == nil {
		return 0
	}
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on Linux
}

// do sends one request and returns status and body.
func (c *child) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil && method == http.MethodPost && !strings.Contains(path, "/chunks") {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches path and decodes a 200 body into v.
func (c *child) getJSON(ctx context.Context, path string, v any) error {
	code, body, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// scrape reads the child's /metrics into name -> value (labels kept in
// the name).
func (c *child) scrape(ctx context.Context) (map[string]float64, error) {
	code, body, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	return parseProm(body), nil
}

func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}
