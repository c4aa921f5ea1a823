package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/server"
)

// e2eArgs is a scaled-down mixed workload against an in-process daemon.
func e2eArgs(ts *httptest.Server, extra ...string) []string {
	args := []string{
		"-daemon", ts.URL, "-seed", "1", "-deployments", "1", "-tags", "2",
		"-reading-duration", "30", "-rate", "30", "-duration", "2s",
		"-batch", "2", "-chunk", "10", "-workers", "8",
	}
	return append(args, extra...)
}

// openServer opens an in-memory server, failing the test when Open does.
func openServer(t *testing.T) *server.Server {
	t.Helper()
	srv, err := server.Open(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestEndToEndPassingSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a 2s wall-clock load run")
	}
	ts := httptest.NewServer(openServer(t))
	defer ts.Close()

	dir := t.TempDir()
	sloPath := filepath.Join(dir, "slo.json")
	outPath := filepath.Join(dir, "result.json")
	flightPath := filepath.Join(dir, "flight.json")
	// Generous ceilings: the gate must pass on any healthy in-process run.
	if err := os.WriteFile(sloPath, []byte(`{
		"minThroughput": 1,
		"endpoints": {
			"clean": {"maxP99Ms": 60000, "maxErrorRate": 0},
			"query_stay": {"maxP99Ms": 60000, "maxErrorRate": 0},
			"stream_open": {"maxP99Ms": 60000, "maxErrorRate": 0}
		}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	if err := run(e2eArgs(ts, "-slo", sloPath, "-out", outPath, "-flight-out", flightPath), &stdout); err != nil {
		t.Fatalf("load run failed: %v\n%s", err, stdout.String())
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("result file not written: %v", err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result file is not valid JSON: %v", err)
	}
	if res.TotalRequests == 0 || res.Throughput <= 0 {
		t.Fatalf("run recorded no traffic: %+v", res)
	}
	if res.TotalErrors != 0 {
		t.Fatalf("healthy in-process run produced %d errors:\n%s", res.TotalErrors, data)
	}
	if res.SLO == nil || !res.SLO.Passed {
		t.Fatalf("SLO block missing or failed: %+v", res.SLO)
	}
	for _, name := range []string{"clean", "query_stay", "stream_open"} {
		ep, ok := res.Endpoints[name]
		if !ok || ep.Count == 0 {
			t.Fatalf("endpoint %s saw no samples: %s", name, data)
		}
		if ep.P50Ms < 0 || ep.P99Ms < ep.P50Ms || ep.P999Ms < ep.P99Ms {
			t.Fatalf("endpoint %s percentiles not monotone: %+v", name, ep)
		}
		if _, ok := ep.Buckets["+Inf"]; !ok {
			t.Fatalf("endpoint %s has no +Inf bucket on the server ladder: %+v", name, ep)
		}
	}
	if res.SSE != nil && res.SSE.Evicted > 0 {
		t.Fatalf("well-behaved SSE subscribers were evicted: %+v", res.SSE)
	}

	// Tail attribution: the clean endpoint's slowest requests must resolve
	// to server-side traces with a named dominant phase — the daemon's
	// retention policy always holds the slowest-N per endpoint, so a healthy
	// run cannot come back empty.
	tail := res.TailAttribution["clean"]
	if tail == nil || len(tail.Slowest) == 0 {
		t.Fatalf("no tail attribution for clean:\n%s", data)
	}
	attributed := 0
	for _, s := range tail.Slowest {
		if s.RequestID == "" || s.Ms <= 0 {
			t.Fatalf("malformed slow request: %+v", s)
		}
		if len(s.Phases) > 0 {
			attributed++
			if s.DominantPhase == "" {
				t.Fatalf("phases without a dominant phase: %+v", s)
			}
		}
	}
	if attributed == 0 {
		t.Fatalf("no clean slow request resolved to a trace:\n%s", data)
	}
	if tail.DominantPhase == "" {
		t.Fatalf("endpoint-level dominant phase missing: %+v", tail)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("tail attribution")) {
		t.Fatalf("human table missing the tail attribution section:\n%s", stdout.String())
	}

	// The flight window was fetched and is a JSON document with samples.
	fdata, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatalf("flight window not written: %v", err)
	}
	var flight struct {
		Samples []map[string]any `json:"samples"`
	}
	if err := json.Unmarshal(fdata, &flight); err != nil || len(flight.Samples) == 0 {
		t.Fatalf("flight window empty or invalid (err %v):\n%s", err, fdata)
	}
}

func TestEndToEndViolatedSLOExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a 2s wall-clock load run")
	}
	ts := httptest.NewServer(openServer(t))
	defer ts.Close()

	dir := t.TempDir()
	sloPath := filepath.Join(dir, "slo.json")
	outPath := filepath.Join(dir, "result.json")
	// An impossible ceiling: no request finishes in a nanosecond.
	if err := os.WriteFile(sloPath, []byte(`{"endpoints": {"clean": {"maxP99Ms": 0.000001}}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	err := run(e2eArgs(ts, "-slo", sloPath, "-out", outPath), &stdout)
	if !errors.Is(err, errSLO) {
		t.Fatalf("impossible SLO must fail with errSLO, got %v", err)
	}
	if !bytes.Contains(stdout.Bytes(), []byte("SLO VIOLATION")) {
		t.Fatalf("violation not reported on stdout:\n%s", stdout.String())
	}
	// The artifact is still written — it is most valuable when the gate trips.
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("result file must be written even on violation: %v", err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.SLO == nil || res.SLO.Passed || len(res.SLO.Violations) == 0 {
		t.Fatalf("result must record the failed gate: %+v", res.SLO)
	}
}

func TestMalformedSLOFailsBeforeLoad(t *testing.T) {
	dir := t.TempDir()
	sloPath := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(sloPath, []byte(`{"endpoints": {"bogus": {}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	// No daemon is running at this address; the malformed gate must fail
	// before any connection is attempted.
	err := run([]string{"-daemon", "http://127.0.0.1:1", "-slo", sloPath}, &stdout)
	if err == nil || errors.Is(err, errSLO) {
		t.Fatalf("malformed spec must be a usage error, got %v", err)
	}
}
