package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// scrape fetches /metrics and returns the text body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// mustContain asserts every wanted sample line appears in the scrape.
func mustContain(t *testing.T, got string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(got, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// TestMetricsReflectServedCleans is the observability acceptance check: a
// served clean shows up in /metrics, and a repeated clean with identical
// parameters is a constraint-cache hit — i.e. the second request performed
// zero DU/LT/TT inference work.
func TestMetricsReflectServedCleans(t *testing.T) {
	base, depID, _, readings := harness(t)

	req := CleanRequest{Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 5}
	if resp, _ := postClean(t, base, req); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first clean status = %d", resp.StatusCode)
	}
	if resp, _ := postClean(t, base, req); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second clean status = %d", resp.StatusCode)
	}

	got := scrape(t, base)
	mustContain(t, got,
		`rfidclean_clean_requests_total{mode="single",outcome="ok"} 2`,
		"rfidclean_constraint_cache_misses_total 1",
		"rfidclean_constraint_cache_hits_total 1",
		"rfidclean_store_trajectories 2",
		"rfidclean_deployments 1",
		"rfidclean_clean_duration_seconds_count 2",
	)

	// A different parameter set is a miss again.
	req.MinStay = 7
	if resp, _ := postClean(t, base, req); resp.StatusCode != http.StatusCreated {
		t.Fatalf("third clean status = %d", resp.StatusCode)
	}
	mustContain(t, scrape(t, base), "rfidclean_constraint_cache_misses_total 2")

	// Queries and deletes are counted too.
	var stay []LocationProb
	if code := getJSON(t, fmt.Sprintf("%s/v1/trajectories/t1/stay?t=10", base), &stay); code != http.StatusOK {
		t.Fatalf("stay status = %d", code)
	}
	dreq, err := http.NewRequest(http.MethodDelete, base+"/v1/trajectories/t2", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	mustContain(t, scrape(t, base),
		`rfidclean_query_ops_total{op="stay"} 1`,
		`rfidclean_query_ops_total{op="delete"} 1`,
		"rfidclean_store_trajectories 2", // 3 stored - 1 deleted
	)
}

func TestMetricsMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(openServer(t, Options{}))
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d", resp.StatusCode)
	}
}
