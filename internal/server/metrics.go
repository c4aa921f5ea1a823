package server

import (
	"net/http"

	rfidclean "repro"
	"repro/internal/obs/metrics"
)

// serverMetrics is the query head's instrument set on the shared registry
// (internal/obs/metrics), rendered at GET /metrics in registration order.
// All fields are safe for concurrent use.
type serverMetrics struct {
	reg metrics.Registry

	// Request counters.
	cleanRequests *metrics.CounterVec // {mode: single|group|batch|stream, outcome}
	batchSlots    *metrics.CounterVec // {outcome: ok|error}
	queryOps      *metrics.CounterVec // {op: stay|match|top|occupancy|stats|delete|list}

	// Constraint cache.
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter

	// Latency and size distributions.
	cleanSeconds *metrics.Histogram
	graphBytes   *metrics.Histogram

	// Per-endpoint request latency with exemplars linking high buckets to
	// retained traces (exemplar.go).
	requestSeconds *requestHistograms

	// Cleaning explain aggregates: where clean time goes, phase by phase,
	// and how many candidate successors each constraint family pruned.
	phaseSeconds     *metrics.HistogramVec // {phase: derive|compile|forward|backward|revise}
	prunedCandidates *metrics.CounterVec   // {constraint: DU|LT|TT}

	// Trajectory store.
	storeBytes     *metrics.Gauge
	storeCount     *metrics.Gauge
	storeEvictions *metrics.Counter

	// Streaming sessions.
	streamSessions *metrics.Gauge      // currently open sessions
	streamReadings *metrics.CounterVec // {outcome: ok|out_of_order|gap|budget|bad_reading|dead_end|dead_session}
	observeSeconds *metrics.Histogram
	streamReaped   *metrics.Counter
	streamEvicted  *metrics.Counter
	streamSmooths  *metrics.CounterVec // {mode: incremental}

	// Event fan-out (hub.go).
	streamSubscribers   *metrics.Gauge      // SSE subscribers currently attached
	streamEvents        *metrics.CounterVec // {kind: delta|smooth|close}
	streamEventsDropped *metrics.Counter    // events a subscriber's buffer could not take
	streamSubsEvicted   *metrics.Counter    // subscribers dropped for falling behind
	fanoutSeconds       *metrics.Histogram

	// Resource bounds and liveness.
	deployments    *metrics.Gauge
	matrixBytes    *metrics.Gauge // detection matrices of the registered deployments
	bodyRejections *metrics.Counter
	inflight       *metrics.Gauge // /v1/ requests currently being served

	// Durability (persist.go); all zero when the server runs without a data
	// directory.
	persistFlushes        *metrics.Counter
	persistCompactions    *metrics.Counter
	persistErrors         *metrics.Counter
	persistBytes          *metrics.Gauge // total bytes of the on-disk data files
	persistFlushSeconds   *metrics.Histogram
	recoveredDeployments  *metrics.Gauge
	recoveredTrajectories *metrics.Gauge
	recoveryDropped       *metrics.Gauge // records dropped at boot (unknown dep, undecodable, over budget)
	recoveryTruncated     *metrics.Gauge // 1 when the last boot found a corrupt/truncated log tail
}

func newMetrics() *serverMetrics {
	m := &serverMetrics{}
	r := &m.reg
	m.cleanRequests = r.CounterVec("rfidclean_clean_requests_total",
		"Clean requests served, by mode and outcome.", "mode", "outcome")
	m.batchSlots = r.CounterVec("rfidclean_batch_slots_total",
		"Individual batch-clean slots, by outcome.", "outcome")
	m.queryOps = r.CounterVec("rfidclean_query_ops_total",
		"Trajectory query operations served, by operation.", "op")
	m.cacheHits = r.Counter("rfidclean_constraint_cache_hits_total",
		"Clean requests that reused a cached constraint set.")
	m.cacheMisses = r.Counter("rfidclean_constraint_cache_misses_total",
		"Clean requests that ran DU/LT/TT constraint inference.")
	m.cleanSeconds = r.Histogram("rfidclean_clean_duration_seconds",
		"End-to-end latency of successful clean requests.", metrics.LatencyBounds()...)
	m.graphBytes = r.Histogram("rfidclean_graph_bytes",
		"Estimated size of stored conditioned trajectory graphs.",
		1<<10, 4<<10, 16<<10, 64<<10, 256<<10, 1<<20, 4<<20, 16<<20)
	m.requestSeconds = newRequestHistograms(metrics.LatencyBounds())
	r.Func("rfidclean_request_duration_seconds",
		"Per-endpoint request latency; buckets carry exemplars linking to retained traces at /debug/traces.",
		"histogram", m.requestSeconds.writeSeries)
	m.phaseSeconds = r.HistogramVec("rfidclean_clean_phase_duration_seconds",
		"Per-phase latency of cleans (derive, compile, forward, backward, revise).", "phase",
		0.00001, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1, 5)
	m.prunedCandidates = r.CounterVec("rfidclean_pruned_candidates_total",
		"Candidate successors pruned by integrity constraints, by constraint family.", "constraint")
	m.storeBytes = r.Gauge("rfidclean_store_bytes",
		"Estimated bytes of trajectory graphs currently stored.")
	m.storeCount = r.Gauge("rfidclean_store_trajectories",
		"Trajectory graphs currently stored.")
	m.storeEvictions = r.Counter("rfidclean_store_evictions_total",
		"Trajectory graphs evicted to fit the store byte budget.")
	m.streamSessions = r.Gauge("rfidclean_stream_sessions",
		"Streaming sessions currently open.")
	m.streamReadings = r.CounterVec("rfidclean_stream_readings_total",
		"Streaming readings processed, by outcome.", "outcome")
	m.observeSeconds = r.Histogram("rfidclean_stream_observe_duration_seconds",
		"Per-reading latency of streaming filter observations.",
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25, 1)
	m.streamReaped = r.Counter("rfidclean_stream_reaped_total",
		"Streaming sessions closed by the idle-TTL reaper.")
	m.streamEvicted = r.Counter("rfidclean_stream_evicted_total",
		"Streaming sessions evicted to admit new ones at the session cap.")
	m.streamSmooths = r.CounterVec("rfidclean_stream_smooths_total",
		"Stream smoothing operations, by mode (always incremental: a smooth of the session's live build state).", "mode")
	m.streamSubscribers = r.Gauge("rfidclean_stream_subscribers",
		"SSE event subscribers currently attached across all streaming sessions.")
	m.streamEvents = r.CounterVec("rfidclean_stream_events_total",
		"Events published to streaming-session hubs, by kind.", "kind")
	m.streamEventsDropped = r.Counter("rfidclean_stream_events_dropped_total",
		"Events a slow subscriber's buffer could not accept (each drop also evicts the subscriber).")
	m.streamSubsEvicted = r.Counter("rfidclean_stream_subscribers_evicted_total",
		"SSE subscribers dropped for falling behind their event buffer.")
	m.fanoutSeconds = r.Histogram("rfidclean_stream_fanout_duration_seconds",
		"Time to enqueue one published event to every subscriber of a session.",
		0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005, 0.0001,
		0.00025, 0.0005, 0.001, 0.0025, 0.01, 0.05, 0.25)
	m.deployments = r.Gauge("rfidclean_deployments",
		"Deployments currently registered.")
	m.matrixBytes = r.Gauge("rfidclean_deployment_matrix_bytes",
		"Bytes of the detection matrices (ground truth and calibrated) the registered deployments hold.")
	m.bodyRejections = r.Counter("rfidclean_body_rejections_total",
		"POST bodies rejected for exceeding the size limit.")
	m.inflight = r.Gauge("rfidclean_inflight_requests",
		"API (/v1/) requests currently being served.")
	m.persistFlushes = r.Counter("rfidclean_persist_flushes_total",
		"Durability flushes: WAL append+fsync batches plus deployments snapshots.")
	m.persistCompactions = r.Counter("rfidclean_persist_compactions_total",
		"WAL compactions into the trajectory snapshot.")
	m.persistErrors = r.Counter("rfidclean_persist_errors_total",
		"Persistence operations that failed (logged, not fatal).")
	m.persistBytes = r.Gauge("rfidclean_persist_bytes",
		"Total bytes of the on-disk data files (WAL, snapshots).")
	m.persistFlushSeconds = r.Histogram("rfidclean_persist_flush_duration_seconds",
		"Latency of durability flushes.",
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1)
	m.recoveredDeployments = r.Gauge("rfidclean_persist_recovered_deployments",
		"Deployments recovered from the data directory at boot.")
	m.recoveredTrajectories = r.Gauge("rfidclean_persist_recovered_trajectories",
		"Trajectory graphs recovered from snapshot+WAL at boot.")
	m.recoveryDropped = r.Gauge("rfidclean_persist_recovery_dropped",
		"Recovered records dropped at boot (unknown deployment, undecodable, over budget).")
	m.recoveryTruncated = r.Gauge("rfidclean_persist_recovery_truncated",
		"1 when the last boot found a corrupt or truncated log tail.")
	r.GoRuntime()
	return m
}

// recordExplain folds one clean's explain report into the per-phase latency
// histograms and the per-constraint prune counters.
func (m *serverMetrics) recordExplain(ex *rfidclean.Explain) {
	if ex == nil {
		return
	}
	m.phaseSeconds.Observe("derive", float64(ex.DeriveNanos)/1e9)
	m.phaseSeconds.Observe("compile", float64(ex.Build.CompileNanos)/1e9)
	m.phaseSeconds.Observe("forward", float64(ex.Build.ForwardNanos)/1e9)
	m.phaseSeconds.Observe("backward", float64(ex.Build.BackwardNanos)/1e9)
	m.phaseSeconds.Observe("revise", float64(ex.Build.ReviseNanos)/1e9)
	m.prunedCandidates.Add(uint64(ex.Build.PrunedDU), "DU")
	m.prunedCandidates.Add(uint64(ex.Build.PrunedLT), "LT")
	m.prunedCandidates.Add(uint64(ex.Build.PrunedTT), "TT")
}

// ServeHTTP renders the registry in the Prometheus text format.
func (m *serverMetrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	m.reg.WriteText(w)
}
