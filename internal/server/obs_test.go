package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"log/slog"

	rfidclean "repro"
	"repro/internal/obs"
)

func isHex16(s string) bool {
	if len(s) != 16 {
		return false
	}
	for _, c := range s {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}

// TestRequestIDGeneratedAndEchoed checks every response carries X-Request-ID:
// generated when the client sends none, echoed verbatim when it does, and
// present in error bodies too.
func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	base, _, _, _ := harness(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-ID"); !isHex16(id) {
		t.Fatalf("generated request ID %q is not 16 hex chars", id)
	}

	req, _ := http.NewRequest(http.MethodGet, base+"/v1/trajectories/nope", nil)
	req.Header.Set("X-Request-ID", "client-chosen-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chosen-id" {
		t.Fatalf("echoed request ID = %q, want client-chosen-id", got)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != "client-chosen-id" {
		t.Fatalf("error body requestId = %q, want client-chosen-id", body.RequestID)
	}
}

// TestRequestIDOn413 pins the request ID onto the body-too-large error path,
// which short-circuits before any handler logic runs.
func TestRequestIDOn413(t *testing.T) {
	srv := openServer(t, Options{})
	srv.maxBody = 64
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Valid JSON, so the size cap (not a syntax error) is what trips.
	big := []byte(`{"deployment":"` + strings.Repeat("x", 4096) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/clean", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	hdr := resp.Header.Get("X-Request-ID")
	if !isHex16(hdr) {
		t.Fatalf("413 response request ID %q is not 16 hex chars", hdr)
	}
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != hdr {
		t.Fatalf("413 body requestId %q != header %q", body.RequestID, hdr)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLog checks the slog access line carries the request ID, method,
// path and status, and that probe endpoints log at debug only.
func TestAccessLog(t *testing.T) {
	var logs syncBuffer
	srv := openServer(t, Options{
		Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelInfo})),
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/deployments", nil)
	req.Header.Set("X-Request-ID", "log-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	got := logs.String()
	for _, want := range []string{"requestId=log-probe", "method=GET", "path=/v1/deployments", "status=200"} {
		if !strings.Contains(got, want) {
			t.Fatalf("access log missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "/healthz") {
		t.Fatalf("healthz should only be logged at debug level:\n%s", got)
	}
}

// cleanWithID posts a clean request stamped with a chosen request ID.
func cleanWithID(t *testing.T, base, reqID string, cr CleanRequest) CleanResponse {
	t.Helper()
	body, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/clean", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("clean status = %d: %s", resp.StatusCode, b)
	}
	var out CleanResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDebugTraces drives a clean with a known request ID and reads its span
// tree back from /debug/traces, checking the cleaning phases appear.
func TestDebugTraces(t *testing.T) {
	base, depID, _, readings := harness(t)
	cleanWithID(t, base, "deadbeefdeadbeef", CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 3,
	})

	var tr obs.TraceExport
	if status := getJSON(t, base+"/debug/traces?id=deadbeefdeadbeef", &tr); status != http.StatusOK {
		t.Fatalf("trace fetch status = %d", status)
	}
	if tr.ID != "deadbeefdeadbeef" {
		t.Fatalf("trace id = %q", tr.ID)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "http.request" {
		t.Fatalf("want one http.request root span, got %+v", tr.Spans)
	}
	names := map[string]bool{}
	var walk func(sp *obs.SpanExport)
	walk = func(sp *obs.SpanExport) {
		names[sp.Name] = true
		for _, c := range sp.Spans {
			walk(c)
		}
	}
	walk(tr.Spans[0])
	for _, want := range []string{
		"constraints.lookup", "prior.lsequence",
		"core.build", "core.compile", "core.forward", "core.backward", "core.revise",
		"store.add",
	} {
		if !names[want] {
			t.Fatalf("trace missing span %q; have %v", want, names)
		}
	}
	if tr.Spans[0].Attrs["status"] != float64(http.StatusCreated) {
		t.Fatalf("http.request status attr = %v", tr.Spans[0].Attrs["status"])
	}

	// The listing endpoint serves the same trace newest-first.
	var listing debugTracesResponse
	if status := getJSON(t, base+"/debug/traces?limit=5", &listing); status != http.StatusOK {
		t.Fatalf("trace list status = %d", status)
	}
	if listing.Recorded == 0 || len(listing.Traces) == 0 {
		t.Fatalf("listing = recorded %d, %d traces", listing.Recorded, len(listing.Traces))
	}

	if status := getJSON(t, base+"/debug/traces?id=unknown-id", nil); status != http.StatusNotFound {
		t.Fatalf("unknown trace id status = %d, want 404", status)
	}
}

// TestTracingDisabled checks a negative TraceBuffer turns /debug/traces off
// without breaking request serving.
func TestTracingDisabled(t *testing.T) {
	ts := httptest.NewServer(openServer(t, Options{TraceBuffer: -1}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-ID"); !isHex16(id) {
		t.Fatalf("request ID still expected with tracing off, got %q", id)
	}
}

// TestExplainEndpoint is the acceptance E2E: the explain report's
// per-constraint prune counts must sum consistently with the ct-graph's
// candidate counts. Its node tallies describe the graph the serving build
// built (Build with Quotient, which drops dominated TL entries), no
// larger at any step than Algorithm 1's, while the response's nodes count
// the stored quotient, which is no larger still.
func TestExplainEndpoint(t *testing.T) {
	base, depID, sys, readings := harness(t)
	created := cleanWithID(t, base, "explain-e2e", CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 3,
	})

	var er ExplainResponse
	if status := getJSON(t, base+"/v1/trajectories/"+created.ID+"/explain", &er); status != http.StatusOK {
		t.Fatalf("explain status = %d", status)
	}
	if er.ID != created.ID || er.Deployment != depID || er.Explain == nil {
		t.Fatalf("explain envelope = %+v", er)
	}
	b := er.Explain.Build
	if len(b.Steps) != len(readings) {
		t.Fatalf("explain has %d steps, window has %d timestamps", len(b.Steps), len(readings))
	}
	var gap, nodes int64
	for i, st := range b.Steps {
		if st.Considered < st.Accepted || st.NodesFinal > st.NodesBuilt {
			t.Fatalf("step %d inconsistent: %+v", i, st)
		}
		gap += int64(st.Considered - st.Accepted)
		nodes += int64(st.NodesFinal)
	}
	if pruned := b.PrunedDU + b.PrunedLT + b.PrunedTT; pruned != gap {
		t.Fatalf("prune counters sum to %d, considered-accepted gap is %d", pruned, gap)
	}
	ic, err := sys.InferConstraints(2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var served, plain rfidclean.BuildExplain
	q, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Explain: &served, Quotient: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Clean(readings, ic, &rfidclean.BuildOptions{EndLatency: rfidclean.LenientEnd, Explain: &plain}); err != nil {
		t.Fatal(err)
	}
	var want int64
	for i, st := range served.Steps {
		if st.NodesBuilt > plain.Steps[i].NodesBuilt {
			t.Fatalf("step %d: serving build built %d nodes, Algorithm 1 %d", i, st.NodesBuilt, plain.Steps[i].NodesBuilt)
		}
		want += int64(st.NodesFinal)
	}
	if nodes != want {
		t.Fatalf("Σ NodesFinal = %d, the serving build's graph has %d nodes", nodes, want)
	}
	if er.Nodes != created.Nodes || er.Nodes != q.Stats().Nodes || int64(er.Nodes) > nodes {
		t.Fatalf("stored nodes = %d (created %d), quotient %d, Σ NodesFinal = %d",
			er.Nodes, created.Nodes, q.Stats().Nodes, nodes)
	}
	if b.ForwardNanos <= 0 || b.BackwardNanos <= 0 {
		t.Fatalf("per-phase timings missing: %+v", b)
	}
	if b.Normalizer <= 0 {
		t.Fatalf("normalizer = %v", b.Normalizer)
	}
	if er.Explain.DeriveNanos <= 0 {
		t.Fatalf("derive timing missing: %d", er.Explain.DeriveNanos)
	}
}

// TestExplainStabilityOverHTTP cleans the same readings twice and requires
// identical counters (wall times excluded) — the report must be a function
// of the input.
func TestExplainStabilityOverHTTP(t *testing.T) {
	base, depID, _, readings := harness(t)
	req := CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 3}

	fetch := func(label string) rfidclean.BuildExplain {
		created := cleanWithID(t, base, label, req)
		var er ExplainResponse
		if status := getJSON(t, base+"/v1/trajectories/"+created.ID+"/explain", &er); status != http.StatusOK {
			t.Fatalf("explain status = %d", status)
		}
		b := er.Explain.Build
		b.CompileNanos, b.ForwardNanos, b.BackwardNanos, b.ReviseNanos = 0, 0, 0, 0
		return b
	}
	a, b := fetch("stability-1"), fetch("stability-2")
	if a.PrunedDU != b.PrunedDU || a.PrunedLT != b.PrunedLT || a.PrunedTT != b.PrunedTT ||
		a.TargetsCondemned != b.TargetsCondemned || a.BackwardRemoved != b.BackwardRemoved ||
		a.GhostsRemoved != b.GhostsRemoved || a.Normalizer != b.Normalizer {
		t.Fatalf("explain counters differ across identical cleans:\n%+v\n%+v", a, b)
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, a.Steps[i], b.Steps[i])
		}
	}
}

// TestMetricsObservability checks the new /metrics series: runtime gauges in
// sorted order, per-phase histograms and per-constraint prune counters after
// a clean.
func TestMetricsObservability(t *testing.T) {
	base, depID, _, readings := harness(t)
	cleanWithID(t, base, "metrics-probe", CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 3,
	})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	gauges := []string{
		"go_gc_pause_seconds_total",
		"go_gc_runs_total",
		"go_gomaxprocs",
		"go_goroutines",
		"go_heap_alloc_bytes",
	}
	last := -1
	for _, g := range gauges {
		idx := strings.Index(body, "\n"+g+" ")
		if idx < 0 {
			t.Fatalf("/metrics missing runtime gauge %s", g)
		}
		if idx < last {
			t.Fatalf("runtime gauge %s out of sorted order", g)
		}
		last = idx
	}
	for _, want := range []string{
		`rfidclean_clean_phase_duration_seconds_bucket{phase="backward",le=`,
		`rfidclean_clean_phase_duration_seconds_bucket{phase="forward",le=`,
		`rfidclean_clean_phase_duration_seconds_count{phase="derive"} 1`,
		`rfidclean_pruned_candidates_total{constraint="DU"}`,
		`rfidclean_pruned_candidates_total{constraint="LT"}`,
		`rfidclean_pruned_candidates_total{constraint="TT"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestServerCloseIdempotent is the regression test for the double-Close fix:
// a second (or concurrent) Close must neither panic nor return before the
// reaper goroutine has drained.
func TestServerCloseIdempotent(t *testing.T) {
	srv := openServer(t, Options{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// With a running reaper: every closer must wait for the drain.
	st := newSessionStore(1, 0, newMetrics())
	if st.open(&deployment{id: "d"}, nil) == nil {
		t.Fatal("open returned nil before close")
	}
	if !st.reaping {
		t.Fatal("reaper did not start")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.close()
			select {
			case <-st.done:
			default:
				t.Error("close returned before the reaper drained")
			}
		}()
	}
	wg.Wait()
	if st.open(&deployment{id: "d"}, nil) != nil {
		t.Fatal("open succeeded after close")
	}
}
