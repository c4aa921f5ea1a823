package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/hist"
	"repro/internal/obs/metrics"
)

// This file is the tail-attribution half of /metrics: a per-endpoint request
// latency histogram backed by the shared HDR histogram, with OpenMetrics-
// style exemplars on its buckets. An exemplar links a bucket to the request
// ID of a concrete request that landed in it — and the renderer only emits
// exemplars whose trace is still retained by the recorder, so following one
// to /debug/traces?id= always resolves.

// classifyEndpoint maps a request to the fixed endpoint taxonomy shared with
// cmd/rfidload's SLO vocabulary. Unknown /v1/ shapes fall into "other".
func classifyEndpoint(method, path string) string {
	switch path {
	case "/v1/clean":
		return "clean"
	case "/v1/clean/batch":
		return "clean_batch"
	case "/v1/stream":
		return "stream_open"
	case "/v1/deployments", "/v1/deployments/":
		return "deployments"
	case "/v1/trajectories", "/v1/trajectories/":
		return "trajectory"
	}
	if rest, ok := strings.CutPrefix(path, "/v1/stream/"); ok {
		switch {
		case strings.HasSuffix(rest, "/readings"):
			return "stream_readings"
		case strings.HasSuffix(rest, "/smooth"):
			return "stream_smooth"
		case strings.HasSuffix(rest, "/events"):
			return "stream_events"
		case method == "DELETE":
			return "stream_close"
		default:
			return "stream_status"
		}
	}
	if rest, ok := strings.CutPrefix(path, "/v1/trajectories/"); ok {
		if i := strings.LastIndexByte(rest, '/'); i >= 0 {
			switch rest[i+1:] {
			case "stay":
				return "query_stay"
			case "match":
				return "query_pattern"
			case "top":
				return "query_top"
			case "occupancy":
				return "query_occupancy"
			case "explain":
				return "query_explain"
			}
		}
		return "trajectory"
	}
	if strings.HasPrefix(path, "/v1/deployments/") {
		return "deployments"
	}
	return "other"
}

// exemplar is one bucket's linked request.
type exemplar struct {
	requestID    string
	traced       bool
	valueSeconds float64
	unixNanos    int64
}

// endpointHist is one endpoint's latency distribution: a lock-free HDR
// histogram for the counts plus a mutex-guarded exemplar slot per coarse
// bucket. The slot is only touched for requests whose trace the recorder
// retained, so the common (sampled-away) request pays a single atomic-add
// observe and never takes the lock.
type endpointHist struct {
	hist hist.Hist
	mu   sync.Mutex
	ex   []exemplar // len(bounds)+1, last slot is +Inf
}

// requestHistograms fans endpointHist out over the endpoint taxonomy.
type requestHistograms struct {
	bounds []float64
	mu     sync.Mutex
	eps    map[string]*endpointHist
	// held reports whether a request ID's trace is still retained; nil
	// disables exemplar rendering entirely (tracing off).
	held func(id string) bool
}

func newRequestHistograms(bounds []float64) *requestHistograms {
	return &requestHistograms{bounds: bounds, eps: make(map[string]*endpointHist)}
}

func (rh *requestHistograms) endpoint(name string) *endpointHist {
	rh.mu.Lock()
	eh := rh.eps[name]
	if eh == nil {
		eh = &endpointHist{ex: make([]exemplar, len(rh.bounds)+1)}
		rh.eps[name] = eh
	}
	rh.mu.Unlock()
	return eh
}

// bucketIndex returns the coarse bucket an observation (seconds) falls in;
// len(bounds) is +Inf.
func (rh *requestHistograms) bucketIndex(seconds float64) int {
	return sort.SearchFloat64s(rh.bounds, seconds)
}

// observe records one request. When kept is true (the recorder retained the
// request's trace) the bucket's exemplar is overwritten to point at it —
// bucket overwrite is the exemplar eviction policy, so each bucket links to
// the most recent retained request that landed in it.
func (rh *requestHistograms) observe(endpoint string, d time.Duration, reqID string, kept bool) {
	eh := rh.endpoint(endpoint)
	eh.hist.Observe(d.Nanoseconds())
	if !kept || reqID == "" {
		return
	}
	seconds := d.Seconds()
	idx := rh.bucketIndex(seconds)
	eh.mu.Lock()
	eh.ex[idx] = exemplar{requestID: reqID, traced: true, valueSeconds: seconds, unixNanos: time.Now().UnixNano()}
	eh.mu.Unlock()
}

// writeSeries renders the per-endpoint series with exemplar suffixes:
//
//	name_bucket{endpoint="clean",le="2.5"} 40 # {request_id="…",traced="true"} 2.31 1717…
//
// Exemplars whose trace the recorder has since dropped are omitted rather
// than emitted as dead links.
func (rh *requestHistograms) writeSeries(w io.Writer, name string) {
	rh.mu.Lock()
	names := make([]string, 0, len(rh.eps))
	for k := range rh.eps {
		names = append(names, k)
	}
	sort.Strings(names)
	eps := make([]*endpointHist, len(names))
	for i, k := range names {
		eps[i] = rh.eps[k]
	}
	rh.mu.Unlock()

	for i, ep := range names {
		eh := eps[i]
		cum := eh.hist.Cumulative(rh.bounds)
		eh.mu.Lock()
		ex := make([]exemplar, len(eh.ex))
		copy(ex, eh.ex)
		eh.mu.Unlock()
		for j, b := range rh.bounds {
			fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=%q} %d", name, ep, metrics.FormatFloat(b), cum[j])
			rh.writeExemplar(w, ex[j])
			io.WriteString(w, "\n")
		}
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d", name, ep, cum[len(rh.bounds)])
		rh.writeExemplar(w, ex[len(rh.bounds)])
		io.WriteString(w, "\n")
		fmt.Fprintf(w, "%s_sum{endpoint=%q} %s\n", name, ep, metrics.FormatFloat(float64(eh.hist.Sum())/1e9))
		fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", name, ep, eh.hist.Count())
	}
}

func (rh *requestHistograms) writeExemplar(w io.Writer, ex exemplar) {
	if ex.requestID == "" || rh.held == nil || !rh.held(ex.requestID) {
		return
	}
	fmt.Fprintf(w, " # {request_id=%q,traced=\"%t\"} %s %s",
		ex.requestID, ex.traced, metrics.FormatFloat(ex.valueSeconds),
		metrics.FormatFloat(float64(ex.unixNanos)/1e9))
}
