package shard

import (
	"net/http"
	"strconv"

	"repro/internal/obs/metrics"
)

// Router-side metrics, on the same registry and bucket ladder as the
// worker's (internal/obs/metrics). The router's series are all keyed by
// shard, so an operator reading the router's /metrics sees at a glance which
// worker is slow, erroring, or unreachable — the per-shard health view next
// to the aggregate /healthz.

// requestClasses are the outcome classes of one forwarded request.
const (
	classOK        = "2xx"
	class3xx       = "3xx"
	class4xx       = "4xx"
	class5xx       = "5xx"
	classTransport = "transport" // no response: dial/read failure or timeout
)

// routerMetrics is the router's instrument set.
type routerMetrics struct {
	reg metrics.Registry
	// requests counts every forwarded sub-request by shard and outcome
	// class (2xx..5xx, or transport when no response came back).
	requests *metrics.CounterVec
	// seconds is the per-shard forwarded-request latency.
	seconds *metrics.HistogramVec
	// retries counts connection-error retries across all shards.
	retries *metrics.Counter
	// shardUp is 1/0 per shard as of its last contact.
	shardUp *metrics.GaugeVec
	// partials counts scatter-gather reads answered degraded (some shard
	// unreachable; response carries the partial marker).
	partials *metrics.Counter
	// replicationFailures counts deployment register/delete fan-outs that
	// could not reach every shard.
	replicationFailures *metrics.Counter
}

func newRouterMetrics() *routerMetrics {
	m := &routerMetrics{}
	r := &m.reg
	m.requests = r.CounterVec("rfidclean_router_requests_total",
		"Requests the router forwarded to worker shards, by shard and outcome class.", "shard", "class")
	m.seconds = r.HistogramVec("rfidclean_router_request_duration_seconds",
		"Latency of requests forwarded to worker shards, by shard.", "shard", metrics.LatencyBounds()...)
	m.retries = r.Counter("rfidclean_router_retries_total",
		"Forwarded requests retried after a connection-level error.")
	m.shardUp = r.GaugeVec("rfidclean_router_shard_up",
		"1 when the shard answered its most recent forwarded request, 0 when it was unreachable.", "shard")
	m.partials = r.Counter("rfidclean_router_partial_reads_total",
		"Scatter-gather reads answered degraded because a shard was unreachable.")
	m.replicationFailures = r.Counter("rfidclean_router_replication_failures_total",
		"Deployment register/delete fan-outs that could not reach every shard.")
	return m
}

// observe records one forwarded sub-request's outcome for a shard.
func (m *routerMetrics) observe(shard int, class string, seconds float64) {
	s := strconv.Itoa(shard)
	m.requests.Inc(s, class)
	m.seconds.Observe(s, seconds)
	up := int64(1)
	if class == classTransport {
		up = 0
	}
	m.shardUp.Set(s, up)
}

// ServeHTTP renders the registry in the Prometheus text format.
func (m *routerMetrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	m.reg.WriteText(w)
}
