package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"log/slog"

	"repro/internal/obs/flight"
)

// TestDebugFlightEndpoint checks GET /debug/flight serves the sampled window
// with runtime stats and the server's application gauges.
func TestDebugFlightEndpoint(t *testing.T) {
	srv := openServer(t, Options{FlightInterval: time.Hour}) // one boot sample, no ticking
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// The boot sample lands asynchronously (the sampler goroutine runs a 1ms
	// scheduler probe first), so poll briefly.
	var snap flight.Snapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status := getJSON(t, ts.URL+"/debug/flight", &snap); status != http.StatusOK {
			t.Fatalf("flight status = %d", status)
		}
		if len(snap.Samples) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight window has no samples")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s := snap.Samples[0]
	if s.Goroutines <= 0 || s.HeapAllocBytes == 0 || s.UnixNanos == 0 {
		t.Fatalf("boot sample looks empty: %+v", s)
	}
	for _, gauge := range []string{"store_bytes", "stream_sessions", "inflight_requests", "persist_errors_total"} {
		if _, ok := s.Gauges[gauge]; !ok {
			t.Fatalf("sample missing gauge %q: %v", gauge, s.Gauges)
		}
	}

	resp, err := http.Post(ts.URL+"/debug/flight", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/flight = %d, want 405", resp.StatusCode)
	}
}

// TestDebugFlightDisabled checks a negative interval turns the recorder off.
func TestDebugFlightDisabled(t *testing.T) {
	srv := openServer(t, Options{FlightInterval: -1})
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if status := getJSON(t, ts.URL+"/debug/flight", nil); status != http.StatusNotFound {
		t.Fatalf("disabled flight status = %d, want 404", status)
	}
}

func flightDumps(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// waitForDump polls for an asynchronous dump file to land.
func waitForDump(t *testing.T, dir string, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		paths := flightDumps(t, dir)
		if len(paths) >= want {
			return paths
		}
		if time.Now().After(deadline) {
			t.Fatalf("dump files = %d, want %d", len(paths), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testSink(t *testing.T, dir string) *flightSink {
	t.Helper()
	f := &flightSink{
		rec:     flight.New(time.Hour, 8, nil),
		dataDir: dir,
		logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	f.rec.Start()
	t.Cleanup(func() { f.rec.Close() })
	return f
}

// TestFlightDumpOnEvictionStorm checks the storm detector: evictions below
// the threshold dump nothing, crossing it writes exactly one throttled dump.
func TestFlightDumpOnEvictionStorm(t *testing.T) {
	dir := t.TempDir()
	f := testSink(t, dir)

	f.noteEvictions(stormEvictions - 1)
	time.Sleep(50 * time.Millisecond)
	if got := flightDumps(t, dir); len(got) != 0 {
		t.Fatalf("sub-threshold evictions dumped: %v", got)
	}

	f.noteEvictions(1) // crosses the threshold
	paths := waitForDump(t, dir, 1)

	var snap flight.Snapshot
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("dump is not a flight snapshot: %v", err)
	}
	found := false
	for _, ev := range snap.Events {
		if ev.Reason == "eviction_storm" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump events missing eviction_storm: %+v", snap.Events)
	}

	// Another storm inside the throttle window must not write a second file.
	f.noteEvictions(stormEvictions)
	time.Sleep(100 * time.Millisecond)
	if got := flightDumps(t, dir); len(got) != 1 {
		t.Fatalf("throttle failed: %d dump files", len(got))
	}
}

// TestFlightDumpOnPersistError checks the persister hook writes a dump noting
// the failed step.
func TestFlightDumpOnPersistError(t *testing.T) {
	dir := t.TempDir()
	f := testSink(t, dir)

	f.notePersistError("flush")
	paths := waitForDump(t, dir, 1)

	var snap flight.Snapshot
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range snap.Events {
		if ev.Reason == "persist_error" && ev.Detail == "flush" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump events missing persist_error/flush: %+v", snap.Events)
	}
}

// TestDumpFlightUnthrottled checks the SIGQUIT path bypasses the throttle and
// returns the written path.
func TestDumpFlightUnthrottled(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Options{FlightInterval: time.Hour, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	p1, err := srv.DumpFlight("sigquit")
	if err != nil || p1 == "" {
		t.Fatalf("first dump: path %q, err %v", p1, err)
	}
	p2, err := srv.DumpFlight("sigquit")
	if err != nil || p2 == "" || p2 == p1 {
		t.Fatalf("second dump throttled or reused path: %q vs %q, err %v", p2, p1, err)
	}
	for _, p := range []string{p1, p2} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("dump path %s: %v", p, err)
		}
	}
}
