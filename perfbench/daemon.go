package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"drmap/client"
	"drmap/internal/cluster"
	"drmap/internal/obs"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// logBuffer collects a daemon's stderr.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// daemon is one drmap-serve or drmap-worker process on a loopback port.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *logBuffer
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// freePort asks the kernel for an unused loopback port. The daemons
// take -addr, not a listener, so the port is released before launch;
// a lost race shows up as a daemon that exits, and setup retries.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startDaemon(bin, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: &logBuffer{}, done: make(chan struct{})}
	cmd.Stdout = d.log
	cmd.Stderr = d.log
	// The daemon dies with the benchmark, so a crash leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM and waits for the process; anything but an exit
// status of 0 with the "shut down cleanly" line is an error.
func (d *daemon) stop() error {
	if !d.exited() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s did not exit within 20s of SIGTERM", d.name)
	}
	if d.err != nil {
		return fmt.Errorf("%s exited uncleanly: %v\n%s", d.name, d.err, tail(d.log.String()))
	}
	if !strings.Contains(d.log.String(), "shut down cleanly") {
		return fmt.Errorf("%s exited without the clean-shutdown line\n%s", d.name, tail(d.log.String()))
	}
	return nil
}

func tail(s string) string {
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return s
}

// cpuSeconds reads the daemon's user plus system CPU seconds.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", d.name)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// rssPeakMB reads the daemon's VmHWM in MiB.
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", d.name)
}

// stack is the system under test: one standalone daemon, or a
// coordinator (daemons[0]) plus its workers.
type stack struct {
	daemons []*daemon
	api     *client.Client
}

func (s *stack) url() string { return s.daemons[0].url }

// stop stops every daemon, coordinator last, and joins their errors.
func (s *stack) stop() error {
	var errs []error
	for i := len(s.daemons) - 1; i >= 0; i-- {
		errs = append(errs, s.daemons[i].stop())
	}
	return errors.Join(errs...)
}

func (s *stack) cpuSeconds() (float64, error) {
	var sum float64
	for _, d := range s.daemons {
		v, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (s *stack) rssPeakMB() (float64, error) {
	var sum float64
	for _, d := range s.daemons {
		v, err := d.rssPeakMB()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// workerPlanMisses sums drmap_plan_cache_misses_total over the stack's
// workers: the count-plan columns they have counted.
func (s *stack) workerPlanMisses(ctx context.Context) (float64, error) {
	var sum float64
	for _, d := range s.daemons[1:] {
		exp, err := d.metrics(ctx)
		if err != nil {
			return 0, err
		}
		v, _ := exp.Value("drmap_plan_cache_misses_total", nil)
		sum += v
	}
	return sum, nil
}

// metrics scrapes and parses the daemon's /metrics.
func (d *daemon) metrics(ctx context.Context) (*obs.Exposition, error) {
	text, err := getText(ctx, d.url+"/metrics")
	if err != nil {
		return nil, err
	}
	exp, err := obs.ParseExposition(text)
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	return exp, nil
}

// clusterWorkers is how many worker processes cluster-mix runs.
const clusterWorkers = 2

// setUp launches the stack and returns once it is ready: /healthz ok on
// every daemon, every registered backend characterized, and on a
// cluster both workers live. A daemon that dies during set-up (a lost
// port race) fails the attempt; setUp retries twice.
func setUp(ctx context.Context, bins string, w *Workload) (*stack, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		st, err := launch(ctx, bins, w)
		if err == nil {
			return st, time.Since(start), nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func launch(ctx context.Context, bins string, w *Workload) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			_ = st.stop()
		}
	}()
	serve := filepath.Join(bins, "drmap-serve")
	if !w.Cluster {
		d, err := startDaemon(serve, "drmap-serve")
		if err != nil {
			return st, err
		}
		st.daemons = append(st.daemons, d)
	} else {
		d, err := startDaemon(serve, "coordinator", "-role", "coordinator")
		if err != nil {
			return st, err
		}
		st.daemons = append(st.daemons, d)
		// A worker registers at start and then every 5s: start it once
		// the coordinator listens, or its first registration is lost.
		if err := waitHealthy(ctx, d); err != nil {
			return st, err
		}
		for i := 1; i <= clusterWorkers; i++ {
			d, err := startDaemon(filepath.Join(bins, "drmap-worker"), fmt.Sprintf("worker-%d", i),
				"-coordinator", st.url(), "-workers", "1", "-id", fmt.Sprintf("w%d", i))
			if err != nil {
				return st, err
			}
			st.daemons = append(st.daemons, d)
		}
	}
	st.api = client.New(st.url(), client.WithRetry(0, 0))
	for _, d := range st.daemons {
		if err := waitHealthy(ctx, d); err != nil {
			return st, err
		}
	}
	for _, d := range st.daemons {
		api := client.New(d.url, client.WithRetry(0, 0))
		if _, err := api.Characterize(ctx, client.CharacterizeRequest{}); err != nil {
			return st, fmt.Errorf("characterize on %s: %w", d.name, err)
		}
	}
	if w.Cluster {
		if err := waitWorkers(ctx, st.daemons[0], clusterWorkers); err != nil {
			return st, err
		}
	}
	return st, nil
}

func waitHealthy(ctx context.Context, d *daemon) error {
	api := client.New(d.url, client.WithRetry(0, 0))
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if d.exited() {
			return fmt.Errorf("%s exited during start-up\n%s", d.name, tail(d.log.String()))
		}
		if h, err := api.Health(ctx); err == nil && h.Status == "ok" {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after 30s", d.name)
}

func waitWorkers(ctx context.Context, coord *daemon, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var resp cluster.WorkersResponse
		if err := getJSON(ctx, coord.url+cluster.PathWorkers, &resp); err == nil {
			live := 0
			for _, w := range resp.Workers {
				if w.Live {
					live++
				}
			}
			if live >= want {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("coordinator did not see %d live workers within 30s", want)
}

func getJSON(ctx context.Context, url string, out any) error {
	body, err := getText(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), out)
}

func getText(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return buf.String(), nil
}
