package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file owns the daemon under test: exec it on a free loopback port,
// wait for /healthz, read its CPU and memory from /proc, scrape /metrics,
// and SIGKILL it. Teardown is always SIGKILL: a graceful Close compacts the
// whole store, which on a large store takes far longer than the run.

// healthPoll is the /healthz polling interval while a daemon boots.
const healthPoll = 2 * time.Millisecond

type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
}

// startDaemon execs bin serving dataDir on a free loopback port, with stdout
// and stderr appended to logPath.
func startDaemon(bin, dataDir, logPath string, flags []string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a SIGKILLed daemon carries nothing
		close(d.done)
	}()
	return d, nil
}

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process already exited
	<-d.done
}

// waitHealthy polls /healthz until it answers 200 and returns that body.
func (d *daemon) waitHealthy(ctx context.Context, client *http.Client, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	tick := time.NewTicker(healthPoll)
	defer tick.Stop()
	for {
		if body, err := get(ctx, client, d.base+"/healthz"); err == nil {
			return body, nil
		}
		select {
		case <-d.done:
			return nil, errors.New("daemon exited before it was healthy")
		case <-ctx.Done():
			return nil, fmt.Errorf("daemon not healthy after %s", timeout)
		case <-tick.C:
		}
	}
}

// cpu returns the CPU time the daemon's threads have run so far, summed
// from /proc/<pid>/task/<tid>/schedstat. That counts nanoseconds, where
// /proc/<pid>/stat counts 10-ms ticks, too coarse for a pass of a few
// hundred milliseconds of CPU. A thread that has exited is not counted; the
// Go runtime keeps its threads.
func (d *daemon) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the directory was read
		}
		if err != nil {
			return 0, err
		}
		ran, err := parseSchedstat(raw)
		if err != nil {
			return 0, err
		}
		total += ran
	}
	return total, nil
}

// peakRSS returns the daemon's resident-set high-water mark (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatus(raw)
}

// metrics scrapes and parses the daemon's /metrics.
func (d *daemon) metrics(ctx context.Context, client *http.Client) (map[string]float64, error) {
	body, err := get(ctx, client, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

// parseSchedstat returns a thread's run time, the first field of its
// /proc/<pid>/task/<tid>/schedstat, in nanoseconds.
func parseSchedstat(raw []byte) (time.Duration, error) {
	f := strings.Fields(string(raw))
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// parseProcStatus returns VmHWM, in bytes, from /proc/<pid>/status.
func parseProcStatus(raw []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// parseMetrics parses the Prometheus text format into series → value, the
// series keyed by name plus label set exactly as exposed
// ("rfidclean_clean_phase_duration_seconds_sum{phase=\"forward\"}").
// Comments, exemplars and unparsable lines are skipped.
func parseMetrics(raw []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // OpenMetrics exemplar
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// metricsDelta returns after[series] − before[series], summed over every
// series whose key starts with prefix (so a labeled family sums its
// members). A series missing from before counts from zero.
func metricsDelta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// get sends one GET and returns the body of a 200 answer.
func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
