package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	rfidclean "repro"
	"repro/internal/server"
)

// edgeDeployment builds the same small three-room deployment the server
// tests use, serialized for POST /v1/deployments plus its System for
// generating readings.
func edgeDeployment(t *testing.T) ([]byte, *rfidclean.System) {
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
		Name: "edge-test",
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
	var buf bytes.Buffer
	if err := dep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sys, err := dep.System()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sys
}

// edgeReadings generates a cleanable reading sequence for sys.
func edgeReadings(t *testing.T, sys *rfidclean.System, seed uint64, duration int) []rfidclean.Reading {
	t.Helper()
	rng := rfidclean.NewRNG(seed)
	truth, err := rfidclean.GenerateTrajectory(sys.Plan, rfidclean.NewGeneratorConfig(duration), rng)
	if err != nil {
		t.Fatal(err)
	}
	return rfidclean.GenerateReadings(truth, sys.Truth, rng)
}

// newDaemon boots an in-process rfidcleand, registers the test deployment,
// and returns the base URL and deployment id.
func newDaemon(t *testing.T) (string, string, *rfidclean.System) {
	t.Helper()
	depJSON, sys := edgeDeployment(t)
	srv, err := server.Open(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/deployments", "application/json", bytes.NewReader(depJSON))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deployment POST: %d: %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("deployment POST: undecodable %q", body)
	}
	return ts.URL, created.ID, sys
}

// startStub serves readings over the stub reader API and returns its URL.
func startStub(t *testing.T, readings []rfidclean.Reading, interval time.Duration) string {
	t.Helper()
	ts := httptest.NewServer(newStubReaderFor(readings, interval))
	t.Cleanup(ts.Close)
	return ts.URL
}

// edgeConfig returns a fast-test baseline config against the given daemon,
// deployment, and reader.
func edgeConfig(daemon, depID, reader string) config {
	return config{
		daemon:      daemon,
		reader:      reader,
		deployment:  depID,
		maxSpeed:    2,
		minStay:     5,
		mode:        "poll",
		poll:        time.Millisecond,
		batch:       7,
		flushEvery:  20 * time.Millisecond,
		closeOnExit: true,
		backoffMin:  time.Millisecond,
		backoffMax:  20 * time.Millisecond,
		maxAttempts: 20,
	}
}

// assertTrajectory checks that exactly one stored trajectory covers all
// duration timestamps — the proof that every stub reading reached a session
// and survived the final smooth.
func assertTrajectory(t *testing.T, base string, duration int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("trajectory list: %v (%s)", err, body)
	}
	if len(list) != 1 {
		t.Fatalf("want 1 stored trajectory, got %d (%s)", len(list), body)
	}
	id := list[0].ID
	stay, err := http.Get(fmt.Sprintf("%s/v1/trajectories/%s/stay?t=%d", base, id, duration-1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stay.Body)
	stay.Body.Close()
	if stay.StatusCode != http.StatusOK {
		t.Fatalf("stay query at t=%d on %s: %d (trajectory does not cover the full feed)", duration-1, id, stay.StatusCode)
	}
}

func TestEdgePollEndToEnd(t *testing.T) {
	base, depID, sys := newDaemon(t)
	readings := edgeReadings(t, sys, 11, 40)
	cfg := edgeConfig(base, depID, startStub(t, readings, time.Millisecond))
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	assertTrajectory(t, base, len(readings))
}

func TestEdgeEventsMode(t *testing.T) {
	base, depID, sys := newDaemon(t)
	readings := edgeReadings(t, sys, 12, 40)
	cfg := edgeConfig(base, depID, startStub(t, readings, time.Millisecond))
	cfg.mode = "events"
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	assertTrajectory(t, base, len(readings))
}

func TestEdgeBinaryCodec(t *testing.T) {
	base, depID, sys := newDaemon(t)
	readings := edgeReadings(t, sys, 13, 40)
	cfg := edgeConfig(base, depID, startStub(t, readings, time.Millisecond))
	cfg.binary = true
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	assertTrajectory(t, base, len(readings))
}

// TestEdgeReopensOn410 reaps the session out from under a running edge and
// checks that it re-opens a fresh one and replays the full history: the
// final trajectory must cover every reading, including those fed before the
// kill.
func TestEdgeReopensOn410(t *testing.T) {
	base, depID, sys := newDaemon(t)
	readings := edgeReadings(t, sys, 14, 60)
	cfg := edgeConfig(base, depID, startStub(t, readings, 3*time.Millisecond))
	cfg.poll = 3 * time.Millisecond
	cfg.batch = 5

	// Once the first session has accepted a couple of batches, close it
	// server-side without smoothing — the edge's next POST answers 410.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for i := 0; i < 2000; i++ {
			var st server.StreamStatus
			resp, err := http.Get(base + "/v1/stream/s1")
			if err != nil {
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &st) == nil && st.Readings >= 10 {
				req, _ := http.NewRequest(http.MethodDelete, base+"/v1/stream/s1?smooth=no", nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	<-killed
	// s1 was closed with smoothing skipped, so the only stored trajectory is
	// the re-opened session's — and it must cover the entire feed.
	assertTrajectory(t, base, len(readings))
}

// TestEdgeRetriesOn503 drops a flaky proxy between edge and daemon that
// fails the first few readings POSTs; the edge must back off and deliver.
func TestEdgeRetriesOn503(t *testing.T) {
	base, depID, sys := newDaemon(t)
	var failures atomic.Int32
	failures.Store(3)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && failures.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)

	readings := edgeReadings(t, sys, 15, 40)
	cfg := edgeConfig(proxy.URL, depID, startStub(t, readings, time.Millisecond))
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if failures.Load() >= 0 {
		t.Fatalf("proxy never exhausted its induced failures (%d left)", failures.Load())
	}
	assertTrajectory(t, base, len(readings))
}

// TestEdgeGivesUpAfterMaxAttempts checks the retry budget is a budget.
func TestEdgeGivesUpAfterMaxAttempts(t *testing.T) {
	var posts atomic.Int32
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/stream" {
			posts.Add(1)
		}
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)
	cfg := edgeConfig(down.URL, "d1", startStub(t, nil, time.Millisecond))
	cfg.maxAttempts = 3
	if err := run(context.Background(), cfg); err == nil {
		t.Fatal("run succeeded against a daemon that only answers 503")
	}
	if got := posts.Load(); got != 3 {
		t.Fatalf("open session tried %d times, want 3", got)
	}
}

// TestStubReader exercises the embedded reader API directly: advance-on-read
// /scan, a done report on exhaustion, and /.status accounting.
func TestStubReader(t *testing.T) {
	readings := []rfidclean.Reading{
		{Time: 0, Readers: rfidclean.NewReaderSet(1)},
		{Time: 1, Readers: rfidclean.NewReaderSet()},
	}
	ts := httptest.NewServer(newStubReaderFor(readings, time.Millisecond))
	t.Cleanup(ts.Close)
	scan := func() scanReport {
		t.Helper()
		resp, err := http.Get(ts.URL + "/scan")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep scanReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := scan(); rep.Time != 0 || len(rep.Readers) != 1 || rep.Readers[0] != 1 {
		t.Fatalf("first scan = %+v", rep)
	}
	if rep := scan(); rep.Time != 1 || len(rep.Readers) != 0 || rep.Done {
		t.Fatalf("second scan = %+v", rep)
	}
	if rep := scan(); !rep.Done {
		t.Fatalf("exhausted scan = %+v, want done", rep)
	}
	resp, err := http.Get(ts.URL + "/.status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Served int `json:"served"`
		Total  int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 2 || st.Total != 2 {
		t.Fatalf("status = %+v, want served=2 total=2", st)
	}
}
