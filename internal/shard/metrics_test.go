package shard

import (
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// TestRouterMetricsExpositionGolden pins the router's whole /metrics body,
// byte for byte.
func TestRouterMetricsExpositionGolden(t *testing.T) {
	m := newRouterMetrics()
	// Every instrument gets fixed values. Shard "10" sorts before "2" in
	// the exposition: label values order as strings.
	m.observe(0, classOK, 0.004)
	m.observe(0, class4xx, 0.0001)
	m.observe(1, classTransport, 1.5)
	m.observe(2, class5xx, 30)
	m.observe(10, classOK, 0.02)
	m.observe(10, class3xx, 0.0005)
	m.retries.Inc()
	m.retries.Inc()
	m.partials.Inc()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content-type = %q", ct)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Errorf("exposition differs from testdata/metrics.golden:\n%s", got)
	}
}
