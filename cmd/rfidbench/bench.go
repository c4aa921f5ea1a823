package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
)

// This file runs one end-to-end measurement: boot the daemon setupRounds
// times (each on a fresh data directory, timing exec → healthy → deployments
// registered → prefill done), drive the warm-up and the window against the
// last one, check the answers and the recovery, and SIGKILL everything.

const (
	setupRounds = 7                // set-ups per run; setup_s is their median
	bootTimeout = 60 * time.Second // exec → first healthy /healthz
	grace       = 20 * time.Second // window overrun budget before ops fail
)

// bench is one invocation.
type bench struct {
	w      workload
	seed   uint64
	window time.Duration
	bin    string // daemon binary
	work   string // working directory of this run, removed at its end
	out    string // where a traced run writes BENCH_TRACE.json and BENCH_LAYERS.json
	plan   *plan
	client *http.Client // unmeasured control traffic
}

// session is one booted, registered and prefilled daemon.
type session struct {
	d       *daemon
	dir     string
	depIDs  []string
	targets [][]string // per deployment: prefilled trajectory ids
}

// window is what one measured window produced.
type window struct {
	stats   *loadStats
	cpu     time.Duration // daemon CPU spent in the window
	rssMB   float64       // daemon VmHWM at the end of the window
	gcRuns  float64       // daemon GC cycles in the window
	gcPause float64       // daemon GC pause in the window, s
	storeMB float64       // trajectory store at the end of the window
	dataMB  float64       // data directory at the end of the window
}

func newBench(w workload, seed uint64, windowLen time.Duration, bin, work string) (*bench, error) {
	p, err := synthesize(w, seed, windowLen)
	if err != nil {
		return nil, err
	}
	return &bench{
		w: w, seed: seed, window: windowLen, bin: bin, work: work, plan: p,
		client: newHTTPClient(2, reqTimeout),
	}, nil
}

// setup boots a daemon on a fresh data directory, registers the plan's
// deployments and cleans the prefill sequences, returning the time it took.
func (b *bench) setup(ctx context.Context, round int) (*session, time.Duration, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("data-%d", round))
	start := time.Now()
	d, err := b.startDaemon(dir)
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d, dir: dir}
	if err := b.prepare(ctx, s); err != nil {
		d.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// startDaemon execs the daemon with the workload's flags on dir.
func (b *bench) startDaemon(dir string) (*daemon, error) {
	return startDaemon(b.bin, dir, filepath.Join(b.work, "daemon.log"), b.w.Daemon)
}

func (b *bench) prepare(ctx context.Context, s *session) error {
	if _, err := s.d.waitHealthy(ctx, b.client, bootTimeout); err != nil {
		return err
	}
	for i, dep := range b.plan.Deps {
		var reg struct {
			ID string `json:"id"`
		}
		if err := postJSON(ctx, b.client, s.d.base+"/v1/deployments", dep.Body, &reg); err != nil {
			return fmt.Errorf("registering deployment %d: %w", i, err)
		}
		s.depIDs = append(s.depIDs, reg.ID)
	}
	s.targets = make([][]string, len(b.plan.Deps))
	for i, dep := range b.plan.Deps {
		for tag := 0; tag < b.plan.Prefill; tag++ {
			var out server.CleanResponse
			if err := postJSON(ctx, b.client, s.d.base+"/v1/clean", dep.cleanBody(s.depIDs[i], tag), &out); err != nil {
				return fmt.Errorf("prefilling deployment %d tag %d: %w", i, tag, err)
			}
			s.targets[i] = append(s.targets[i], out.ID)
		}
	}
	return nil
}

// setups runs setupRounds set-ups, keeping the last session, and returns
// every round's duration in seconds and the speed kernel's times, ms, from
// setupKernelRuns runs before each round and after the last.
func (b *bench) setups(ctx context.Context) (*session, []float64, []float64, error) {
	var times, kernelMs []float64
	runKernel := func() {
		for i := 0; i < setupKernelRuns; i++ {
			kernelMs = append(kernelMs, timeKernel())
		}
	}
	for round := 0; ; round++ {
		runKernel()
		s, took, err := b.setup(ctx, round)
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, took.Seconds())
		if round == setupRounds-1 {
			runKernel()
			return s, times, kernelMs, nil
		}
		s.d.kill()
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, nil, nil, err
		}
	}
}

// drive runs the plan's warm-up and window of HTTP ops against s. The
// daemon's counters and CPU time are read when the window starts, after the
// warm-up, and again when it ends.
func (b *bench) drive(ctx context.Context, s *session) (*window, error) {
	ld := newLoader(s.d.base, b.plan, s.depIDs, s.targets)
	var (
		m0      map[string]float64
		cpu0    time.Duration
		readErr error
	)
	runCtx, cancel := context.WithTimeout(ctx, warmup+b.window+grace)
	ld.run(runCtx, func() {
		if m0, readErr = s.d.metrics(ctx, b.client); readErr == nil {
			cpu0, readErr = s.d.cpu()
		}
	})
	cancel()
	if readErr != nil {
		return nil, readErr
	}
	cpu1, err := s.d.cpu()
	if err != nil {
		return nil, err
	}
	hwm, err := s.d.peakRSS()
	if err != nil {
		return nil, err
	}
	m1, err := s.d.metrics(ctx, b.client)
	if err != nil {
		return nil, err
	}
	data, err := dirSize(s.dir)
	if err != nil {
		return nil, err
	}
	return &window{
		stats:   &ld.stats,
		cpu:     cpu1 - cpu0,
		rssMB:   float64(hwm) / 1e6,
		gcRuns:  metricsDelta(m0, m1, "go_gc_runs_total"),
		gcPause: metricsDelta(m0, m1, "go_gc_pause_seconds_total"),
		storeMB: m1["rfidclean_store_bytes"] / 1e6,
		dataMB:  float64(data) / 1e6,
	}, nil
}

// dirSize returns the total size of the regular files in dir.
func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// waitPersisted waits until the daemon's write-ahead log has stopped
// growing, so everything stored so far is on disk before a SIGKILL. The
// writer flushes as soon as a put is queued, so quiet polls in a row without
// growth mean it has drained; the recovered trajectory count checks it.
func waitPersisted(ctx context.Context, dir string) error {
	const poll, quiet = 20 * time.Millisecond, 10
	wal := filepath.Join(dir, "trajectories.wal")
	last, still := int64(-1), 0
	for still < quiet {
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return ctx.Err()
		}
		st, err := os.Stat(wal)
		if err != nil {
			return err
		}
		if st.Size() == last && st.Size() > 0 {
			still++
		} else {
			last, still = st.Size(), 0
		}
	}
	return nil
}

// healthTrajectories reads the trajectory count of a /healthz body.
func healthTrajectories(body []byte) (int, error) {
	var h struct {
		Trajectories int `json:"trajectories"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return h.Trajectories, nil
}

// postJSON POSTs body and decodes a 2xx answer into out.
func postJSON(ctx context.Context, client *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}
