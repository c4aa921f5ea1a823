package server

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/obs"
)

// statusWriter captures the status code written by a handler so the access
// log and trace can report it. Unwrap lets http.ResponseController reach the
// underlying writer (flush, deadlines).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// sseLogInfo carries SSE delivery stats from the hub's write loop back to
// the access log: an events stream is effectively unbounded, so its log line
// reports time-to-first-event and delivered volume, not just total duration.
type sseLogInfo struct {
	start      time.Time
	firstNanos atomic.Int64 // attach-to-first-event latency; 0 until an event lands
	events     atomic.Int64
	bytes      atomic.Int64
}

// noteEvent books one delivered event of n bytes. Nil-safe so the hub can
// call it unconditionally.
func (i *sseLogInfo) noteEvent(n int) {
	if i == nil {
		return
	}
	if i.events.Add(1) == 1 {
		i.firstNanos.Store(time.Since(i.start).Nanoseconds())
	}
	i.bytes.Add(int64(n))
}

type sseLogKey struct{}

// sseInfoFrom returns the request's SSE log carrier, or nil.
func sseInfoFrom(ctx context.Context) *sseLogInfo {
	info, _ := ctx.Value(sseLogKey{}).(*sseLogInfo)
	return info
}

// ServeHTTP implements http.Handler. Every request gets a request ID (echoed
// from the client's X-Request-ID or generated) that appears on the response,
// in error bodies, and in the access log; /v1/ requests additionally record
// a span trace addressable by that ID at /debug/traces, retained under the
// recorder's tail-biased policy, and feed the per-endpoint exemplar
// histogram on /metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	// Setting the response header before dispatch lets every write site
	// (including writeError deep in handlers) read the ID back off the
	// header map without threading it through call signatures.
	w.Header().Set("X-Request-ID", reqID)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()

	api := strings.HasPrefix(r.URL.Path, "/v1/")
	var endpoint string
	if api {
		endpoint = classifyEndpoint(r.Method, r.URL.Path)
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
	}
	var sse *sseLogInfo
	if endpoint == "stream_events" {
		sse = &sseLogInfo{start: start}
		r = r.WithContext(context.WithValue(r.Context(), sseLogKey{}, sse))
	}
	if api {
		var tr *obs.Trace
		var root *obs.Span
		if s.recorder != nil {
			tr = obs.NewTrace(reqID)
			var ctx context.Context
			ctx, root = obs.Start(obs.WithTrace(r.Context(), tr), "http.request")
			root.Str("method", r.Method).Str("path", r.URL.Path)
			r = r.WithContext(ctx)
		}
		defer func() {
			d := time.Since(start)
			root.Int("status", int64(sw.status))
			root.End()
			kept := s.recorder.RecordRequest(tr, endpoint, d, sw.status)
			exID := reqID
			if tr == nil {
				exID = "" // tracing off: no exemplar to link
			}
			s.metrics.requestSeconds.observe(endpoint, d, exID, kept)
		}()
	}
	defer func() {
		// Probe endpoints are scraped constantly; keep them out of the
		// Info-level log.
		level := slog.LevelInfo
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			level = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String("requestId", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", time.Since(start)),
		}
		if sse != nil {
			attrs = append(attrs,
				slog.Duration("timeToFirstEvent", time.Duration(sse.firstNanos.Load())),
				slog.Int64("eventsDelivered", sse.events.Load()),
				slog.Int64("bytesDelivered", sse.bytes.Load()),
			)
		}
		s.logger.LogAttrs(r.Context(), level, "request", attrs...)
	}()
	s.mux.ServeHTTP(sw, r)
}

// debugTracesResponse is the GET /debug/traces body.
type debugTracesResponse struct {
	// Recorded counts traces ever offered to the recorder (held, sampled
	// away or evicted).
	Recorded uint64 `json:"recorded"`
	// Traces are the requested span trees, newest first.
	Traces []obs.TraceExport `json:"traces"`
}

// handleDebugTraces serves the retained request and persistence traces:
// all held traces newest first, ?limit=N to cap the count, ?id=<request id>
// to fetch one.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, "tracing is disabled (negative trace buffer)")
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		tr := s.recorder.Find(id)
		if tr == nil {
			writeError(w, http.StatusNotFound, "no recorded trace for request id %q", id)
			return
		}
		writeJSON(w, http.StatusOK, tr.Export())
		return
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		var err error
		if limit, err = strconv.Atoi(q); err != nil || limit < 1 {
			writeError(w, http.StatusBadRequest, "invalid ?limit=")
			return
		}
	}
	held := s.recorder.Snapshot(limit)
	out := debugTracesResponse{
		Recorded: s.recorder.Added(),
		Traces:   make([]obs.TraceExport, len(held)),
	}
	for i, tr := range held {
		out.Traces[i] = tr.Export()
	}
	writeJSON(w, http.StatusOK, out)
}
