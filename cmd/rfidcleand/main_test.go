package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	rfidclean "repro"
	"repro/internal/server"
)

// smallDeployment builds a 3-location deployment small enough to register
// and clean in milliseconds.
func smallDeployment(t *testing.T) (*rfidclean.Deployment, *rfidclean.System) {
	t.Helper()
	b := rfidclean.NewMapBuilder()
	cor := b.AddLocation("corridor", rfidclean.Corridor, 0, rfidclean.RectWH(0, 0, 12, 3))
	lab := b.AddLocation("lab", rfidclean.Room, 0, rfidclean.RectWH(0, 3, 6, 5))
	office := b.AddLocation("office", rfidclean.Room, 0, rfidclean.RectWH(6, 3, 6, 5))
	b.AddDoor(cor, lab, rfidclean.Pt(3, 3), 1)
	b.AddDoor(cor, office, rfidclean.Pt(9, 3), 1)
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dep := &rfidclean.Deployment{
		Name: "shutdown-test",
		Plan: plan,
		Readers: []rfidclean.Reader{
			{ID: 0, Name: "r-lab", Floor: 0, Pos: rfidclean.Pt(3, 5.5)},
			{ID: 1, Name: "r-office", Floor: 0, Pos: rfidclean.Pt(9, 5.5)},
			{ID: 2, Name: "r-cor", Floor: 0, Pos: rfidclean.Pt(6, 1.5)},
		},
		Detection:          rfidclean.DefaultThreeState(),
		CellSize:           0.5,
		CalibrationSamples: 30,
		Seed:               5,
	}
	sys, err := dep.System()
	if err != nil {
		t.Fatal(err)
	}
	return dep, sys
}

// TestRunGracefulShutdown boots the daemon on an ephemeral port exactly as
// main wires it (signal.NotifyContext), fires a batch clean, delivers a real
// SIGTERM while it may still be in flight, and asserts the request completes
// and run returns cleanly.
func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer cancel()
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, config{
			addr:  "127.0.0.1:0",
			drain: 30 * time.Second,
			ready: ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-runErr:
		t.Fatalf("run exited early: %v", err)
	}

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	// Register a deployment and prepare a batch big enough to outlive the
	// shutdown trigger (the test stays correct even if it finishes first).
	dep, sys := smallDeployment(t)
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/deployments", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	rng := rfidclean.NewRNG(9)
	seqs := make([]rfidclean.ReadingSequence, 16)
	for i := range seqs {
		truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(120), rng)
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = rfidclean.GenerateReadings(truth, sys.Truth, rng)
	}
	body, err := json.Marshal(server.BatchCleanRequest{
		Deployment: created["id"], Sequences: seqs, MaxSpeed: 2, MinStay: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		slots  []server.BatchCleanResult
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/clean/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var slots []server.BatchCleanResult
		err = json.NewDecoder(resp.Body).Decode(&slots)
		resc <- result{status: resp.StatusCode, slots: slots, err: err}
	}()

	// Wait until the server reports the batch in flight (best effort — a
	// fast machine may finish it before we observe it), then pull the plug.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			break
		}
		var out bytes.Buffer
		_, _ = out.ReadFrom(mresp.Body)
		mresp.Body.Close()
		// The scrape itself is not a /v1/ request, so any positive count is
		// the batch.
		if strings.Contains(out.String(), "rfidclean_inflight_requests 1") {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight batch failed across shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight batch status = %d, want 200", res.status)
	}
	if len(res.slots) != len(seqs) {
		t.Fatalf("batch returned %d slots, want %d", len(res.slots), len(seqs))
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after shutdown")
	}

	// The listener must be closed now.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestRunShutdownWithStreamSession: the daemon shuts down cleanly while a
// streaming session (and therefore the idle reaper goroutine) is live — the
// deferred server.Close must drain the reaper, not hang or leak it.
func TestRunShutdownWithStreamSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, config{
			addr:  "127.0.0.1:0",
			drain: 5 * time.Second,
			ready: ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-runErr:
		t.Fatalf("run exited early: %v", err)
	}

	dep, _ := smallDeployment(t)
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/deployments", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	open, err := json.Marshal(server.StreamOpenRequest{
		Deployment: created["id"], MaxSpeed: 2, MinStay: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/stream", "application/json", bytes.NewReader(open))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream open status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return with a live session reaper")
	}
}

// TestRunListenError: an unusable address surfaces as an error, not a hang.
func TestRunListenError(t *testing.T) {
	err := run(context.Background(), config{addr: "127.0.0.1:-1", drain: time.Second})
	if err == nil {
		t.Fatal("run accepted an invalid address")
	}
}

// TestPprofMount: with pprof enabled the index responds under /debug/pprof/.
func TestPprofMount(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, config{addr: "127.0.0.1:0", pprof: true, drain: time.Second, ready: ready})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-runErr:
		t.Fatalf("run exited early: %v", err)
	}
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/", base))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v", err)
	}
}

// bootDaemon starts run() with the given config on an ephemeral port and
// returns the base URL, the cancel that triggers shutdown, and run's error
// channel.
func bootDaemon(t *testing.T, cfg config) (base string, shutdown context.CancelFunc, runErr chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runErr = make(chan error, 1)
	cfg.addr = "127.0.0.1:0"
	if cfg.drain == 0 {
		cfg.drain = 10 * time.Second
	}
	cfg.ready = ready
	go func() { runErr <- run(ctx, cfg) }()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), cancel, runErr
	case err := <-runErr:
		cancel()
		t.Fatalf("run exited early: %v", err)
		return "", nil, nil
	}
}

func stopDaemon(t *testing.T, shutdown context.CancelFunc, runErr chan error) {
	t.Helper()
	shutdown()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after shutdown")
	}
}

// TestRunDurableRestart: the daemon-level recovery loop. Boot with -data-dir
// and -demo, clean a trajectory against the preloaded SYN1 deployment, shut
// down, boot the same directory again — the deployment keeps its id (-demo
// must not re-register it), the trajectory still answers queries with the
// same bytes, and new ids do not collide.
func TestRunDurableRestart(t *testing.T) {
	dir := t.TempDir()
	base, shutdown, runErr := bootDaemon(t, config{demo: true, dataDir: dir})

	dep, sys := smallDeployment(t)
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/deployments", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created["id"] != "d2" {
		t.Fatalf("second deployment id = %s, want d2 (SYN1 is d1)", created["id"])
	}

	rng := rfidclean.NewRNG(13)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(60), rng)
	if err != nil {
		t.Fatal(err)
	}
	readings := rfidclean.GenerateReadings(truth, sys.Truth, rng)
	body, err := json.Marshal(server.CleanRequest{
		Deployment: "d2", Readings: readings, MaxSpeed: 2, MinStay: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/clean", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cleaned server.CleanResponse
	if err := json.NewDecoder(resp.Body).Decode(&cleaned); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("clean status = %d", resp.StatusCode)
	}

	stayURL := fmt.Sprintf("/v1/trajectories/%s/stay?t=30", cleaned.ID)
	resp, err = http.Get(base + stayURL)
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	_, _ = before.ReadFrom(resp.Body)
	resp.Body.Close()

	stopDaemon(t, shutdown, runErr)

	base2, shutdown2, runErr2 := bootDaemon(t, config{demo: true, dataDir: dir})
	defer stopDaemon(t, shutdown2, runErr2)

	resp, err = http.Get(base2 + "/v1/deployments")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rows) != 2 || rows[0].ID != "d1" || rows[0].Name != "SYN1" || rows[1].ID != "d2" {
		t.Fatalf("recovered deployments = %+v, want SYN1 as d1 plus d2 (no -demo duplicate)", rows)
	}

	resp, err = http.Get(base2 + stayURL)
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	_, _ = after.ReadFrom(resp.Body)
	code := resp.StatusCode
	resp.Body.Close()
	if code != http.StatusOK {
		t.Fatalf("recovered trajectory query status = %d", code)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("stay answer changed across restart:\n  before: %s\n  after:  %s", before.Bytes(), after.Bytes())
	}

	resp, err = http.Post(base2+"/v1/clean", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var again server.CleanResponse
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if again.ID == cleaned.ID {
		t.Fatalf("fresh trajectory reused recovered id %s", again.ID)
	}
}
