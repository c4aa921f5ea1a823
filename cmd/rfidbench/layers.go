package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
)

// This file turns a traced run into the per-layer metrics. Each is the
// median over the replay's spans, or per-call counts, of one name: the
// replay's recoveries, plan ops and probes call every layer on every
// workload. The shard hop, which no replayed op crosses, is measured beside
// the replay; the generator lag, GC counts and store and data sizes come
// from the end-to-end window. It also writes BENCH_TRACE.json (the replay's
// spans) and BENCH_LAYERS.json (per request kind: serve = Σ blocking spans +
// residual, plus every metric).

const hopRequests = 50 // stay requests sent direct and through the router

// spanMetric is a per-layer metric taken as the median over the replay's
// spans of one name, of one request kind when kind is set.
type spanMetric struct {
	name, span, kind, unit string
	value                  func(span) float64
}

func spanMs(s span) float64     { return s.dur() / 1e6 }
func spanUs(s span) float64     { return s.dur() / 1e3 }
func spanAllocs(s span) float64 { return float64(s.Allocs) }
func spanKB(s span) float64     { return float64(s.Bytes) / 1e3 }

var spanMetrics = []spanMetric{
	{"server.decode_us", "server.decode", reqClean, "us", spanUs},
	{"server.codec_us", "server.codec", "", "us", spanUs},
	{"deployment.system_ms", "deployment.system", "", "ms", spanMs},
	{"constraints.infer_ms", "constraints.infer", "", "ms", spanMs},
	{"prior.lsequence_us", "prior.lsequence", "", "us", spanUs},
	{"prior.candidates_us", "prior.candidates", "", "us", spanUs},
	{"core.build_ms", "core.build", "", "ms", spanMs},
	{"core.build_allocs", "core.build", "", "count", spanAllocs},
	{"core.build_kb", "core.build", "", "KB", spanKB},
	{"core.compile_ms", "core.compile", "", "ms", spanMs},
	{"core.forward_ms", "core.forward", "", "ms", spanMs},
	{"core.backward_ms", "core.backward", "", "ms", spanMs},
	{"core.revise_ms", "core.revise", "", "ms", spanMs},
	{"core.observe_us", "core.observe", "", "us", spanUs},
	{"core.smooth_ms", "core.smooth", "", "ms", spanMs},
	{"query.stay_us", "query.stay", "", "us", spanUs},
	{"query.match_ms", "query.match", "", "ms", spanMs},
	{"query.match_allocs", "query.match", "", "count", spanAllocs},
	{"query.top_ms", "query.top", "", "ms", spanMs},
	{"persist.encode_ms", "persist.encode", "", "ms", spanMs},
	{"persist.append_ms", "persist.append", "", "ms", spanMs},
	{"persist.fsync_ms", "persist.fsync", "", "ms", spanMs},
}

// countMetrics are per-layer metrics taken as the median of a recorder count.
var countMetrics = []struct{ name, unit string }{
	{"core.graph_nodes", "count"},
	{"persist.put_kb", "KB"},
	{"persist.replay_ms_per_record", "ms"},
}

// serveKinds are the request kinds with a serve and a residual metric each.
// A restart has no residual metric: its decomposed calls run while the
// recovered server still holds every graph and together take longer than
// server.Open, so the difference is not a serving-layer cost.
var serveKinds = []string{reqClean, reqBatch, reqReadings, reqClose, reqStay, reqMatch, reqTop, reqRestart}

// layerMetrics runs the replay twice, recorded and not (for the overhead),
// measures the shard hop, and assembles the per-layer metrics.
func (b *bench) layerMetrics(ctx context.Context, r *e2eRun) (map[string]metricValue, error) {
	rec, ran, tookOn, err := b.replayPass(ctx, true, replayCounts{}, r.dir)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	_, _, tookOff, err := b.replayPass(ctx, false, ran, r.dir)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	hop, err := shardHop(b.plan.Deps[0])
	if err != nil {
		return nil, fmt.Errorf("shard hop: %w", err)
	}
	res := residuals(rec.spans)
	serves := map[string][]float64{}
	resids := map[string][]float64{}
	var ownBytes, own float64 // allocations of the workload's own requests
	for _, s := range rec.spans {
		if s.Name != "server.serve" {
			continue
		}
		serves[s.Kind] = append(serves[s.Kind], spanMs(s))
		resids[s.Kind] = append(resids[s.Kind], res[s.ID]/1e6)
		if slices.Contains(b.w.Primary, s.Kind) || slices.Contains(b.w.Secondary, s.Kind) {
			ownBytes += float64(s.Bytes)
			own++
		}
	}
	var primary []float64
	for _, k := range b.w.Primary {
		primary = append(primary, serves[k]...)
	}
	lag, _ := percentile(r.win.stats.lags, 0.99)
	completed := float64(r.win.stats.ops - r.win.stats.failed)
	m := map[string]metricValue{
		"load.sched_lag_p99_ms":      {lag, "ms"},
		"server.net_ms":              {median(r.win.stats.latencies(b.w.Primary, true, 1)) - median(primary), "ms"},
		"server.store_mb":            {r.win.storeMB, "MB"},
		"persist.data_mb":            {r.win.dataMB, "MB"},
		"shard.hop_ms":               {hop, "ms"},
		"runtime.gc_runs_per_op":     {r.win.gcRuns / completed, "count"},
		"runtime.gc_pause_ms_per_op": {r.win.gcPause * 1e3 / completed, "ms"},
		"runtime.alloc_mb_per_op":    {ownBytes / 1e6 / own, "MB"},
		"trace.overhead_pct":         {(tookOn.Seconds() - tookOff.Seconds()) / tookOff.Seconds() * 100, "%"},
	}
	for _, k := range serveKinds {
		m["server.serve_ms."+k] = metricValue{median(serves[k]), "ms"}
		if k != reqRestart {
			m["server.residual_ms."+k] = metricValue{median(resids[k]), "ms"}
		}
	}
	for _, def := range spanMetrics {
		var xs []float64
		for _, s := range rec.spans {
			if s.Name == def.span && (def.kind == "" || s.Kind == def.kind) {
				xs = append(xs, def.value(s))
			}
		}
		m[def.name] = metricValue{median(xs), def.unit}
	}
	for _, def := range countMetrics {
		m[def.name] = metricValue{median(rec.counts[def.name]), def.unit}
	}
	if err := checkFinite(m); err != nil {
		return nil, err
	}
	log.Printf("replayed %d recoveries, %d plan ops and %d probes (%d spans)", ran.Recoveries, ran.Ops, ran.Probes, len(rec.spans))
	if err := writeJSON(filepath.Join(b.out, "BENCH_TRACE.json"), map[string]any{"workload": b.w.Name, "seed": b.seed, "spans": rec.spans}); err != nil {
		return nil, err
	}
	return m, writeJSON(filepath.Join(b.out, "BENCH_LAYERS.json"), map[string]any{
		"workload": b.w.Name, "seed": b.seed, "replayed": ran, "kinds": kindTables(rec.spans, res), "metrics": m,
	})
}

// dist summarizes one quantity over requests, in ms.
type dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"meanMs"`
	P50  float64 `json:"p50Ms"`
	P99  float64 `json:"p99Ms"`
}

func summarize(xs []float64) dist {
	p99, _ := percentile(xs, 0.99)
	return dist{N: len(xs), Mean: stats.Mean(xs), P50: median(xs), P99: p99}
}

// kindTable is one request kind's decomposition. Means are over every
// request of the kind (zero where a request made no such call), so
// Serve.Mean = Σ Spans[blocking].Mean + Residual.Mean exactly.
type kindTable struct {
	Requests int                  `json:"requests"`
	Serve    dist                 `json:"serve"`
	Residual dist                 `json:"residual"`
	Spans    map[string]*spanStat `json:"spans"`
}

// spanStat is one span name's per-request total within a kind.
type spanStat struct {
	dist
	Blocking bool    `json:"blocking"` // a direct, on-path child of server.serve
	Allocs   float64 `json:"allocsPerRequest"`
	KB       float64 `json:"kbPerRequest"`
}

// kindTables groups spans by request kind; res is residuals(spans).
func kindTables(spans []span, res map[int]float64) map[string]*kindTable {
	type acc struct {
		sums          map[int]float64 // serve span id → per-request total
		allocs, bytes float64
		blocking      bool
	}
	tables := map[string]*kindTable{}
	perName := map[string]map[string]*acc{} // kind → name → acc
	serves := map[string][]float64{}
	resids := map[string][]float64{}
	reqOf := map[int]int{} // span id → its request's serve span id
	for _, s := range spans {
		if s.Name == "server.serve" {
			reqOf[s.ID] = s.ID
			serves[s.Kind] = append(serves[s.Kind], s.dur()/1e6)
			resids[s.Kind] = append(resids[s.Kind], res[s.ID]/1e6)
			continue
		}
		if r, ok := reqOf[s.Parent]; ok {
			reqOf[s.ID] = r
		}
	}
	for _, s := range spans {
		r, ok := reqOf[s.ID]
		if !ok || s.Name == "server.serve" {
			continue
		}
		if perName[s.Kind] == nil {
			perName[s.Kind] = map[string]*acc{}
		}
		a := perName[s.Kind][s.Name]
		if a == nil {
			a = &acc{sums: map[int]float64{}}
			perName[s.Kind][s.Name] = a
		}
		a.sums[r] += s.dur() / 1e6
		a.allocs += float64(s.Allocs)
		a.bytes += float64(s.Bytes)
		a.blocking = s.Parent == r && !s.OffPath
	}
	for kind, sv := range serves {
		t := &kindTable{Requests: len(sv), Serve: summarize(sv), Residual: summarize(resids[kind]), Spans: map[string]*spanStat{}}
		for name, a := range perName[kind] {
			var xs []float64
			var total float64
			for _, v := range a.sums {
				xs = append(xs, v)
				total += v
			}
			d := summarize(xs)
			d.Mean = total / float64(len(sv))
			t.Spans[name] = &spanStat{dist: d, Blocking: a.blocking, Allocs: a.allocs / float64(len(sv)), KB: a.bytes / 1e3 / float64(len(sv))}
		}
		tables[kind] = t
	}
	return tables
}

// shardHop measures what a one-shard router adds to a stay query: the median of
// hopRequests routed through shard.NewRouter to an httptest worker minus
// the median of as many served directly, interleaved. No replayed op crosses
// a router, so this is the one layer measured beside the replay.
func shardHop(d *depInput) (float64, error) {
	srv, err := server.Open(server.Options{TraceBuffer: -1, FlightInterval: -1})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	call := func(h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, req)
		return w, time.Since(start)
	}
	if w, _ := call(srv, http.MethodPost, "/v1/deployments", d.Body); w.Code != http.StatusCreated {
		return 0, fmt.Errorf("registering: %d %s", w.Code, w.Body.Bytes())
	}
	w, _ := call(srv, http.MethodPost, "/v1/clean", d.cleanBody("d1", 0))
	var cleaned server.CleanResponse
	if w.Code != http.StatusCreated || json.Unmarshal(w.Body.Bytes(), &cleaned) != nil {
		return 0, fmt.Errorf("cleaning: %d %s", w.Code, w.Body.Bytes())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	rt, err := shard.NewRouter(shard.Options{Shards: []string{ts.URL}})
	if err != nil {
		return 0, err
	}
	path := fmt.Sprintf("/v1/trajectories/%s/stay?t=%d", cleaned.ID, len(d.Seqs[0])/2)
	var direct, routed []float64
	for i := 0; i < hopRequests; i++ {
		w, took := call(srv, http.MethodGet, path, nil)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("direct stay: %d", w.Code)
		}
		direct = append(direct, ms(took))
		w, took = call(rt, http.MethodGet, path, nil)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("routed stay: %d %s", w.Code, w.Body.Bytes())
		}
		routed = append(routed, ms(took))
	}
	return median(routed) - median(direct), nil
}

// writeJSON writes v to path, indented.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
