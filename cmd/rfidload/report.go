package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/obs/hist"
	"repro/internal/obs/metrics"
)

// endpointNames is the fixed endpoint taxonomy the recorder and the SLO
// vocabulary share. sse_first_event is the time from attaching an SSE
// subscriber to its first received event (replayed history counts).
var endpointNames = []string{
	"clean", "clean_batch",
	"stream_open", "stream_readings", "stream_smooth", "stream_close",
	"query_stay", "query_pattern", "query_top",
	"sse_first_event",
}

// Error classes, as they key EndpointResult.Errors.
const (
	errClass4xx       = "4xx"
	errClass5xx       = "5xx"
	errClassTransport = "transport"
)

// tailTopK is how many slowest requests per endpoint keep their request IDs
// for post-run trace attribution.
const tailTopK = 5

// slowReq is one of an endpoint's slowest requests, remembered by ID so the
// run can fetch its trace afterwards.
type slowReq struct {
	id     string
	dur    time.Duration
	status int
}

// endpointRec accumulates one endpoint's latencies and outcomes. The counters
// are atomics; the slowest-K list is the one mutex-guarded piece and is only
// touched when a request beats the current floor.
type endpointRec struct {
	hist      hist.Hist
	ok        atomic.Uint64
	c4xx      atomic.Uint64
	c5xx      atomic.Uint64
	transport atomic.Uint64

	slowMu sync.Mutex
	slow   []slowReq // descending by duration, len <= tailTopK
}

// noteSlow offers a finished request to the endpoint's slowest-K list.
func (ep *endpointRec) noteSlow(id string, d time.Duration, status int) {
	if id == "" {
		return
	}
	ep.slowMu.Lock()
	defer ep.slowMu.Unlock()
	if len(ep.slow) == tailTopK && d <= ep.slow[tailTopK-1].dur {
		return
	}
	ep.slow = append(ep.slow, slowReq{id: id, dur: d, status: status})
	sort.Slice(ep.slow, func(i, j int) bool { return ep.slow[i].dur > ep.slow[j].dur })
	if len(ep.slow) > tailTopK {
		ep.slow = ep.slow[:tailTopK]
	}
}

// recorder is the run-wide measurement sink.
type recorder struct {
	eps      map[string]*endpointRec // fixed key set, read-only after newRecorder
	requests atomic.Uint64
	errors   atomic.Uint64
	schedLag hist.Hist // dispatch delay behind the open-loop schedule
}

func newRecorder() *recorder {
	r := &recorder{eps: make(map[string]*endpointRec, len(endpointNames))}
	for _, name := range endpointNames {
		r.eps[name] = &endpointRec{}
	}
	return r
}

// record books one finished request. err != nil means the request never got
// an HTTP status (dial/timeout/read failure) and counts as transport. reqID
// is the daemon-assigned X-Request-ID (may be empty) used for tail
// attribution.
func (r *recorder) record(endpoint string, d time.Duration, status int, err error, reqID string) {
	ep := r.eps[endpoint]
	if ep == nil {
		panic("rfidload: unknown endpoint " + endpoint)
	}
	ep.hist.Observe(d.Nanoseconds())
	ep.noteSlow(reqID, d, status)
	r.requests.Add(1)
	switch {
	case err != nil:
		ep.transport.Add(1)
		r.errors.Add(1)
	case status >= 500:
		ep.c5xx.Add(1)
		r.errors.Add(1)
	case status >= 400:
		ep.c4xx.Add(1)
		r.errors.Add(1)
	default:
		ep.ok.Add(1)
	}
}

// EndpointResult is one endpoint's line of LOAD_RESULT.json.
type EndpointResult struct {
	Count     uint64            `json:"count"`
	Errors    map[string]uint64 `json:"errors"`
	ErrorRate float64           `json:"errorRate"`
	P50Ms     float64           `json:"p50Ms"`
	P99Ms     float64           `json:"p99Ms"`
	P999Ms    float64           `json:"p999Ms"`
	MeanMs    float64           `json:"meanMs"`
	MaxMs     float64           `json:"maxMs"`
	// Buckets is the cumulative distribution on internal/server's canonical
	// latency ladder (key = upper bound in seconds, plus "+Inf"), so these
	// line up with the daemon's own /metrics histograms.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// SlowRequest is one attributed tail request in LOAD_RESULT.json.
type SlowRequest struct {
	RequestID string `json:"requestId"`
	Ms        float64
	Status    int `json:"status"`
	// Phases breaks the request's wall time down by the top-level span phases
	// of its server-side trace (ms per phase; "unattributed" is the remainder
	// the spans do not cover). Empty when the trace was not retained.
	Phases        map[string]float64 `json:"phases,omitempty"`
	DominantPhase string             `json:"dominantPhase,omitempty"`
}

// MarshalJSON keeps the custom ms key lowercase without tagging every field.
func (s SlowRequest) MarshalJSON() ([]byte, error) {
	type alias struct {
		RequestID     string             `json:"requestId"`
		Ms            float64            `json:"ms"`
		Status        int                `json:"status"`
		Phases        map[string]float64 `json:"phases,omitempty"`
		DominantPhase string             `json:"dominantPhase,omitempty"`
	}
	return json.Marshal(alias(s))
}

// EndpointTail is one endpoint's tail-attribution block.
type EndpointTail struct {
	Slowest []SlowRequest `json:"slowest"`
	// DominantPhase is the phase that contributed the most total time across
	// the endpoint's attributed slow requests.
	DominantPhase string `json:"dominantPhase,omitempty"`
}

// SSEResult summarizes the run's event subscribers.
type SSEResult struct {
	Subscribers int    `json:"subscribers"`
	Events      uint64 `json:"events"`
	Closed      int    `json:"closed"`     // subscribers that saw the session close event
	Evicted     int    `json:"evicted"`    // dropped by the hub for falling behind
	Incomplete  int    `json:"incomplete"` // ended without close or eviction (timeout, transport)
}

// SLOResult records the gate's outcome inside LOAD_RESULT.json.
type SLOResult struct {
	Spec       string      `json:"spec"`
	Passed     bool        `json:"passed"`
	Violations []violation `json:"violations,omitempty"`
}

// Result is the machine-readable run report (LOAD_RESULT.json).
type Result struct {
	Seed              uint64  `json:"seed"`
	Daemon            string  `json:"daemon"`
	Rate              float64 `json:"rate"`
	DurationSeconds   float64 `json:"durationSeconds"`
	Workers           int     `json:"workers"`
	Deployments       int     `json:"deployments"`
	TagsPerDeployment int     `json:"tagsPerDeployment"`
	ReadingDuration   int     `json:"readingDuration"`

	PlannedOps     int     `json:"plannedOps"`
	DispatchedOps  int     `json:"dispatchedOps"`
	SkippedOps     int     `json:"skippedOps"` // scheduled but past the deadline when a worker freed up
	ElapsedSeconds float64 `json:"elapsedSeconds"`

	TotalRequests uint64  `json:"totalRequests"`
	TotalErrors   uint64  `json:"totalErrors"`
	Throughput    float64 `json:"throughput"` // completed requests per elapsed second

	SchedLagP99Ms float64 `json:"schedLagP99Ms"`
	SchedLagMaxMs float64 `json:"schedLagMaxMs"`

	Endpoints       map[string]EndpointResult `json:"endpoints"`
	TailAttribution map[string]*EndpointTail  `json:"tailAttribution,omitempty"`
	SSE             *SSEResult                `json:"sse,omitempty"`
	SLO             *SLOResult                `json:"slo,omitempty"`
}

func ms(ns int64) float64    { return float64(ns) / 1e6 }
func msF(ns float64) float64 { return ns / 1e6 }

// buildResult snapshots the recorder into a Result. Endpoints that saw no
// traffic are omitted (the SLO evaluator treats a named-but-absent endpoint
// as a violation).
func (r *recorder) buildResult(elapsed time.Duration) *Result {
	res := &Result{
		ElapsedSeconds: elapsed.Seconds(),
		TotalRequests:  r.requests.Load(),
		TotalErrors:    r.errors.Load(),
		Endpoints:      make(map[string]EndpointResult),
		SchedLagP99Ms:  ms(r.schedLag.Quantile(0.99)),
		SchedLagMaxMs:  ms(r.schedLag.Max()),
	}
	if elapsed > 0 {
		res.Throughput = float64(res.TotalRequests) / elapsed.Seconds()
	}
	bounds := metrics.LatencyBounds()
	for name, ep := range r.eps {
		n := ep.hist.Count()
		if n == 0 {
			continue
		}
		errs := map[string]uint64{
			errClass4xx:       ep.c4xx.Load(),
			errClass5xx:       ep.c5xx.Load(),
			errClassTransport: ep.transport.Load(),
		}
		cum := ep.hist.Cumulative(bounds)
		buckets := make(map[string]uint64, len(cum))
		for i, b := range bounds {
			buckets[strconv.FormatFloat(b, 'g', -1, 64)] = cum[i]
		}
		buckets["+Inf"] = cum[len(bounds)]
		res.Endpoints[name] = EndpointResult{
			Count:     n,
			Errors:    errs,
			ErrorRate: float64(errs[errClass4xx]+errs[errClass5xx]+errs[errClassTransport]) / float64(n),
			P50Ms:     ms(ep.hist.Quantile(0.50)),
			P99Ms:     ms(ep.hist.Quantile(0.99)),
			P999Ms:    ms(ep.hist.Quantile(0.999)),
			MeanMs:    msF(ep.hist.Mean()),
			MaxMs:     ms(ep.hist.Max()),
		}
		// Attach buckets after the struct literal so the hot fields stay
		// first in the JSON for human readers.
		er := res.Endpoints[name]
		er.Buckets = buckets
		res.Endpoints[name] = er
	}
	return res
}

// slowest snapshots an endpoint's slowest-K list (descending).
func (r *recorder) slowest(endpoint string) []slowReq {
	ep := r.eps[endpoint]
	if ep == nil {
		return nil
	}
	ep.slowMu.Lock()
	defer ep.slowMu.Unlock()
	out := make([]slowReq, len(ep.slow))
	copy(out, ep.slow)
	return out
}

// writeTable renders the human per-endpoint report.
func writeTable(w io.Writer, res *Result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "endpoint\tcount\t4xx\t5xx\ttransport\tp50 ms\tp99 ms\tp999 ms\tmean ms\tmax ms")
	names := make([]string, 0, len(res.Endpoints))
	for name := range res.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := res.Endpoints[name]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			name, ep.Count,
			ep.Errors[errClass4xx], ep.Errors[errClass5xx], ep.Errors[errClassTransport],
			ep.P50Ms, ep.P99Ms, ep.P999Ms, ep.MeanMs, ep.MaxMs)
	}
	tw.Flush()
	fmt.Fprintf(w, "throughput %.1f req/s (%d requests, %d errors) over %.1fs; ops %d dispatched / %d skipped of %d planned; sched lag p99 %.1f ms max %.1f ms\n",
		res.Throughput, res.TotalRequests, res.TotalErrors, res.ElapsedSeconds,
		res.DispatchedOps, res.SkippedOps, res.PlannedOps,
		res.SchedLagP99Ms, res.SchedLagMaxMs)
	if res.SSE != nil {
		fmt.Fprintf(w, "sse: %d subscribers, %d events, %d closed, %d evicted, %d incomplete\n",
			res.SSE.Subscribers, res.SSE.Events, res.SSE.Closed, res.SSE.Evicted, res.SSE.Incomplete)
	}
	writeTailTable(w, res)
}

// writeTailTable renders the tail-attribution section: the slowest requests
// per endpoint with their dominant server-side phase.
func writeTailTable(w io.Writer, res *Result) {
	if len(res.TailAttribution) == 0 {
		return
	}
	names := make([]string, 0, len(res.TailAttribution))
	for name := range res.TailAttribution {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "tail attribution (slowest requests, server-side phase breakdown):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "endpoint\trequest id\tms\tstatus\tdominant phase\tphases")
	for _, name := range names {
		tail := res.TailAttribution[name]
		for _, s := range tail.Slowest {
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%d\t%s\t%s\n",
				name, s.RequestID, s.Ms, s.Status, orDash(s.DominantPhase), formatPhases(s.Phases))
		}
	}
	tw.Flush()
	for _, name := range names {
		if dp := res.TailAttribution[name].DominantPhase; dp != "" {
			fmt.Fprintf(w, "tail %s: dominant phase %s\n", name, dp)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// formatPhases renders a phase map as "name=ms" pairs, largest first.
func formatPhases(phases map[string]float64) string {
	if len(phases) == 0 {
		return "-"
	}
	type kv struct {
		k string
		v float64
	}
	pairs := make([]kv, 0, len(phases))
	for k, v := range phases {
		pairs = append(pairs, kv{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].k < pairs[j].k
	})
	var b []byte
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%.1f", p.k, p.v)...)
	}
	return string(b)
}

// writeResult writes LOAD_RESULT.json.
func writeResult(path string, res *Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
