package server

import (
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/metrics"
)

func TestClassifyEndpoint(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"POST", "/v1/clean", "clean"},
		{"POST", "/v1/clean/batch", "clean_batch"},
		{"POST", "/v1/stream", "stream_open"},
		{"POST", "/v1/stream/s1/readings", "stream_readings"},
		{"POST", "/v1/stream/s1/smooth", "stream_smooth"},
		{"GET", "/v1/stream/s1/events", "stream_events"},
		{"DELETE", "/v1/stream/s1", "stream_close"},
		{"GET", "/v1/stream/s1", "stream_status"},
		{"GET", "/v1/trajectories/t1/stay", "query_stay"},
		{"GET", "/v1/trajectories/t1/match", "query_pattern"},
		{"GET", "/v1/trajectories/t1/top", "query_top"},
		{"GET", "/v1/trajectories/t1/occupancy", "query_occupancy"},
		{"GET", "/v1/trajectories/t1/explain", "query_explain"},
		{"GET", "/v1/trajectories/t1", "trajectory"},
		{"GET", "/v1/trajectories", "trajectory"},
		{"DELETE", "/v1/trajectories/t1", "trajectory"},
		{"GET", "/v1/deployments", "deployments"},
		{"GET", "/v1/deployments/d1", "deployments"},
		{"POST", "/v1/deployments", "deployments"},
		{"GET", "/v1/nonsense", "other"},
	}
	for _, c := range cases {
		if got := classifyEndpoint(c.method, c.path); got != c.want {
			t.Errorf("classifyEndpoint(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// exemplarLine matches an OpenMetrics bucket line carrying an exemplar:
//
//	name_bucket{endpoint="...",le="..."} N # {request_id="...",traced="true"} <value> <timestamp>
var exemplarLine = regexp.MustCompile(
	`^[a-z_]+_bucket\{endpoint="[a-z_]+",le="[^"]+"\} \d+ # \{request_id="[^"]+",traced="(true|false)"\} [0-9.e+-]+ [0-9.e+-]+$`)

// TestExemplarRendering drives the unit renderer: buckets whose retained
// request landed in them carry a well-formed exemplar, buckets without a
// retained request (sampled away, no request ID, or since dropped by the
// recorder) render bare.
func TestExemplarRendering(t *testing.T) {
	rh := newRequestHistograms(metrics.LatencyBounds())
	held := map[string]bool{"req-fast": true, "req-slow": true}
	rh.held = func(id string) bool { return held[id] }

	rh.observe("clean", 700*time.Microsecond, "req-fast", true) // le="0.001"
	rh.observe("clean", 7*time.Second, "req-slow", true)        // le="10"
	rh.observe("clean", 20*time.Second, "req-dropped", true)    // +Inf, but not held
	rh.observe("clean", 300*time.Microsecond, "", true)         // no request ID

	var buf strings.Builder
	rh.writeSeries(&buf, "rfidclean_request_duration_seconds")
	out := buf.String()

	wantExemplar := map[string]string{`le="0.001"`: "req-fast", `le="10"`: "req-slow"}
	sawSum, sawCount := false, false
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "_sum{") {
			sawSum = true
		}
		if strings.Contains(line, "_count{") {
			sawCount = true
		}
		if !strings.Contains(line, " # ") {
			continue
		}
		if !exemplarLine.MatchString(line) {
			t.Errorf("malformed exemplar line: %s", line)
		}
		matched := false
		for le, id := range wantExemplar {
			if strings.Contains(line, le) {
				if !strings.Contains(line, `request_id="`+id+`"`) {
					t.Errorf("bucket %s links %s, want %s", le, line, id)
				}
				delete(wantExemplar, le)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected exemplar on line: %s", line)
		}
	}
	if len(wantExemplar) != 0 {
		t.Errorf("buckets missing exemplars: %v\n%s", wantExemplar, out)
	}
	if !sawSum || !sawCount {
		t.Errorf("_sum/_count series missing:\n%s", out)
	}
	if strings.Contains(out, "req-dropped") {
		t.Errorf("dropped trace rendered as a dead exemplar link:\n%s", out)
	}

	// With no held callback (tracing off) no exemplars render at all.
	rh.held = nil
	buf.Reset()
	rh.writeSeries(&buf, "rfidclean_request_duration_seconds")
	if strings.Contains(buf.String(), " # ") {
		t.Error("exemplars rendered with tracing disabled")
	}
}

// TestExemplarBucketOverwrite pins the eviction policy: a bucket's exemplar
// slot holds the most recent retained request, so a second request in the
// same bucket replaces the first.
func TestExemplarBucketOverwrite(t *testing.T) {
	rh := newRequestHistograms(metrics.LatencyBounds())
	rh.held = func(string) bool { return true }
	rh.observe("clean", 700*time.Microsecond, "first", true)
	rh.observe("clean", 800*time.Microsecond, "second", true)
	// A non-retained request must NOT displace the retained exemplar.
	rh.observe("clean", 900*time.Microsecond, "sampled-away", false)

	var buf strings.Builder
	rh.writeSeries(&buf, "h")
	out := buf.String()
	if strings.Contains(out, `request_id="first"`) {
		t.Errorf("overwritten exemplar still rendered:\n%s", out)
	}
	if !strings.Contains(out, `request_id="second"`) {
		t.Errorf("latest retained exemplar missing:\n%s", out)
	}
	if strings.Contains(out, "sampled-away") {
		t.Errorf("non-retained request claimed the exemplar slot:\n%s", out)
	}
}

// TestMetricsExemplarResolves is the acceptance loop: a clean's latency
// bucket on /metrics carries an exemplar whose request_id fetches a concrete
// trace at /debug/traces?id=.
func TestMetricsExemplarResolves(t *testing.T) {
	base, depID, _, readings := harness(t)
	cleanWithID(t, base, "cafebabecafebabe", CleanRequest{
		Deployment: depID, Readings: readings, MaxSpeed: 2, MinStay: 3,
	})

	body := scrape(t, base)
	var exID string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `rfidclean_request_duration_seconds_bucket{endpoint="clean"`) &&
			strings.Contains(line, " # ") {
			m := regexp.MustCompile(`request_id="([^"]+)"`).FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("exemplar without request_id: %s", line)
			}
			exID = m[1]
			break
		}
	}
	if exID == "" {
		t.Fatalf("no exemplar on any clean latency bucket:\n%s", body)
	}
	if exID != "cafebabecafebabe" {
		t.Fatalf("exemplar request_id = %q, want the clean's request ID", exID)
	}
	if status := getJSON(t, base+"/debug/traces?id="+exID, nil); status != http.StatusOK {
		t.Fatalf("exemplar %q does not resolve at /debug/traces: status %d", exID, status)
	}
}

// BenchmarkObserveWithExemplars measures the per-request observe cost with
// the realistic retention mix: roughly one in eight requests keeps its trace
// and takes the exemplar-slot lock, the rest ride the lock-free histogram.
func BenchmarkObserveWithExemplars(b *testing.B) {
	rh := newRequestHistograms(metrics.LatencyBounds())
	rh.held = func(string) bool { return true }
	// Warm the endpoint so its one-time histogram allocation stays outside
	// the timer: the steady state is what the zero-alloc contract covers.
	rh.observe("clean", 3*time.Millisecond, "warm", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rh.observe("clean", 3*time.Millisecond, "bench-request-id", i%8 == 0)
	}
}
