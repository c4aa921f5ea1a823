package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	rfidclean "repro"
)

var (
	// sampledRuntime matches a go_* sample line; its value is read from the
	// runtime at scrape time.
	sampledRuntime = regexp.MustCompile(`(?m)^(go_[a-z_]+) .*$`)
	// exemplarTime matches an exemplar's trailing wall-clock timestamp.
	exemplarTime = regexp.MustCompile(`(?m)(# \{[^}]*\} [^ ]+) [^ ]+$`)
)

// TestMetricsExpositionGolden pins the server's whole /metrics body: every
// family, in order, with its help text, type and series, byte for byte. Only
// the sampled go_* values and exemplar timestamps are masked.
func TestMetricsExpositionGolden(t *testing.T) {
	m := newMetrics()
	// Every instrument gets fixed values, including empty and boundary
	// cases, so the rendered exposition is fully determined.
	m.cleanRequests.Inc("single", "ok")
	m.cleanRequests.Inc("single", "ok")
	m.cleanRequests.Inc("batch", "error")
	m.cleanRequests.Inc("group", "bad_request")
	m.batchSlots.Inc("ok")
	m.batchSlots.Inc("error")
	m.queryOps.Inc("stay")
	m.queryOps.Inc("delete")
	m.queryOps.Inc("list")
	m.cacheHits.Add(3)
	m.cacheMisses.Inc()
	m.cleanSeconds.Observe(0.003)
	m.cleanSeconds.Observe(0.25)
	m.cleanSeconds.Observe(20)
	m.graphBytes.Observe(2000)
	m.graphBytes.Observe(1 << 20)
	m.requestSeconds.held = func(id string) bool { return id == "req-kept" }
	m.requestSeconds.observe("clean", 3*time.Millisecond, "req-kept", true)
	m.requestSeconds.observe("clean", 30*time.Millisecond, "req-dropped", true)
	m.requestSeconds.observe("clean", 12*time.Second, "req-kept", true)
	m.requestSeconds.observe("query_stay", 700*time.Microsecond, "", false)
	m.recordExplain(&rfidclean.Explain{
		DeriveNanos: 40_000,
		Build: rfidclean.BuildExplain{
			CompileNanos: 1_000_000, ForwardNanos: 2_500_000,
			BackwardNanos: 70_000_000, ReviseNanos: 9_000_000_000,
			PrunedDU: 12, PrunedLT: 0, PrunedTT: 5,
		},
	})
	m.recordExplain(nil)
	m.storeBytes.Set(123456)
	m.storeCount.Set(7)
	m.storeEvictions.Inc()
	m.streamSessions.Set(2)
	m.streamReadings.Inc("ok")
	m.streamReadings.Inc("ok")
	m.streamReadings.Inc("gap")
	m.observeSeconds.Observe(0.00003)
	m.observeSeconds.Observe(2)
	m.streamReaped.Inc()
	m.streamEvicted.Inc()
	m.streamSmooths.Inc("incremental")
	m.streamSmooths.Inc("full")
	m.streamSubscribers.Add(3)
	m.streamSubscribers.Add(-2)
	m.streamEvents.Inc("delta")
	m.streamEvents.Inc("close")
	m.streamEventsDropped.Inc()
	m.streamSubsEvicted.Inc()
	m.fanoutSeconds.Observe(0.000002)
	m.deployments.Set(3)
	m.matrixBytes.Set(453776)
	m.bodyRejections.Inc()
	m.inflight.Add(1)
	m.persistFlushes.Add(4)
	m.persistCompactions.Inc()
	m.persistBytes.Set(4096)
	m.persistFlushSeconds.Observe(0.0003)
	m.recoveredDeployments.Set(1)
	m.recoveredTrajectories.Set(5)
	m.recoveryTruncated.Set(1)
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content-type = %q", ct)
	}
	got := sampledRuntime.ReplaceAllString(rec.Body.String(), "$1 <sampled>")
	got = exemplarTime.ReplaceAllString(got, "$1 <time>")
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from testdata/metrics.golden:\n%s", got)
	}
}
