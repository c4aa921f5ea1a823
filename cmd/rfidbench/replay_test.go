package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

func TestResidualsSubtractOnlyDirectBlockingSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "server.serve", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "server.decode", Start: 1100, End: 1200},
		{ID: 2, Parent: 0, Name: "core.build", Start: 1200, End: 1700},
		{ID: 3, Parent: 2, Name: "core.forward", Start: 1200, End: 1400},                 // nested in core.build
		{ID: 4, Parent: 0, Name: "persist.fsync", Start: 1700, End: 5000, OffPath: true}, // not waited for
		{ID: 5, Parent: -1, Name: "server.serve", Start: 6000, End: 6300},
		{ID: 6, Parent: 5, Name: "query.stay", Start: 6400, End: 6450},
	}
	want := map[int]float64{0: 1000 - 100 - 500, 5: 300 - 50}
	if got := residuals(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("residuals = %v, want %v", got, want)
	}
}

// fakeRun is an end-to-end outcome of w for feeding the metric code without
// a daemon: 20 samples of its primary and of its secondary kind.
func fakeRun(w workload, dir string) *e2eRun {
	st := &loadStats{ops: 20, measured: 20, kernelMs: []float64{speedRefMs}}
	for i := 0; i < 20; i++ {
		st.samples = append(st.samples,
			sample{Kind: w.Primary[0], Latency: 2 * time.Millisecond, Service: time.Millisecond},
			sample{Kind: w.Secondary[0], Latency: 3 * time.Millisecond, Service: 2 * time.Millisecond})
		st.lags = append(st.lags, 0.1)
	}
	return &e2eRun{dir: dir, setups: []float64{0.1}, setupKMs: []float64{speedRefMs}, win: &window{stats: st, cpu: 40 * time.Millisecond, rssMB: 100, gcRuns: 4, gcPause: 0.001, storeMB: 1, dataMB: 2}}
}

// writeDataDir leaves a daemon data directory behind, as an end-to-end run
// does: the plan's deployments registered and tag 0 of each cleaned.
func writeDataDir(t *testing.T, b *bench) string {
	t.Helper()
	data := filepath.Join(t.TempDir(), "data")
	srv, err := server.Open(server.Options{DataDir: data, FlightInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, d := range b.plan.Deps {
		for _, req := range []struct {
			path string
			body []byte
		}{{"/v1/deployments", d.Body}, {"/v1/clean", d.cleanBody(fmt.Sprintf("d%d", i+1), 0)}} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
			if rec.Code != http.StatusCreated {
				t.Fatalf("%s: %d %s", req.path, rec.Code, rec.Body.Bytes())
			}
		}
	}
	return data
}

func TestTracedReplayReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a plan in-process")
	}
	f, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w := smallWorkload()
	w.Mix = w.Mix[:len(w.Mix)-1]                   // no top ops: probes stand in for them
	b, err := newBench(w, 1, time.Second, "", dir) // 40 warm-up and 20 measured inputs
	if err != nil {
		t.Fatal(err)
	}
	b.out = dir
	m, err := b.layerMetrics(context.Background(), fakeRun(w, writeDataDir(t, b)))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(f.PerLayer) {
		t.Errorf("%d per-layer metrics, BENCHMARK.json names %d", len(m), len(f.PerLayer))
	}
	for _, pl := range f.PerLayer {
		if v, ok := m[pl.Name]; !ok || v.Unit != pl.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", pl.Name, v, pl.Unit)
		}
	}

	var layers struct {
		Replayed replayCounts          `json:"replayed"`
		Kinds    map[string]*kindTable `json:"kinds"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_LAYERS.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &layers); err != nil {
		t.Fatal(err)
	}
	// Recoveries stop at their time budget, which a slow (race-detector)
	// build can reach first.
	got := layers.Replayed
	if got.Recoveries < 1 || got.Recoveries > replayRecoveries || got.Ops != len(b.plan.Ops) || got.Probes != probesPerKind {
		t.Errorf("replayed %+v, want 1 to %d recoveries, %d plan ops and %d probes", got, replayRecoveries, len(b.plan.Ops), probesPerKind)
	}
	wantSpans := map[string][]string{
		reqClean:    {"server.decode", "prior.lsequence", "core.build", "core.forward", "query.engine", "core.stats", "persist.encode", "persist.append", "persist.fsync"},
		reqBatch:    {"server.decode", "prior.lsequence", "core.build"},
		reqOpen:     {"server.decode"},
		reqReadings: {"server.codec", "prior.candidates", "core.observe"},
		reqClose:    {"core.smooth", "query.engine", "persist.fsync"},
		reqStay:     {"query.stay"},
		reqMatch:    {"query.match"},
		reqTop:      {"query.top"},
		reqRestart:  {"persist.read", "deployment.system", "persist.replay", "persist.decode"},
	}
	for kind, names := range wantSpans {
		kt := layers.Kinds[kind]
		if kt == nil {
			t.Errorf("no %s requests replayed", kind)
			continue
		}
		for _, n := range names {
			if kt.Spans[n] == nil {
				t.Errorf("%s: no %s span", kind, n)
			}
		}
		// serve = Σ blocking spans + residual, in the means.
		sum := kt.Residual.Mean
		for _, s := range kt.Spans {
			if s.Blocking {
				sum += s.Mean
			}
		}
		if math.Abs(sum-kt.Serve.Mean) > 1e-9*kt.Serve.Mean {
			t.Errorf("%s: blocking spans + residual = %g ms, serve = %g ms", kind, sum, kt.Serve.Mean)
		}
		if kt.Spans["persist.fsync"] != nil && kt.Spans["persist.fsync"].Blocking {
			t.Errorf("%s: persistence counted as blocking", kind)
		}
	}

	var trace struct {
		Spans []span `json:"spans"`
	}
	raw, err = os.ReadFile(filepath.Join(dir, "BENCH_TRACE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	for _, s := range trace.Spans {
		if s.End < s.Start || (s.Parent >= 0 && trace.Spans[s.Parent].Op != s.Op) {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

func TestRecoveryReplayDecomposesOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("recovers a data directory in-process")
	}
	w := smallWorkload()
	w.Mix = []mixEntry{{kindClean, 1}}
	dir := t.TempDir()
	b, err := newBench(w, 1, time.Second, "", dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, ran, _, err := b.replayPass(context.Background(), true, replayCounts{Recoveries: 2, Ops: 1}, writeDataDir(t, b))
	if err != nil {
		t.Fatal(err)
	}
	if ran.Recoveries != 2 || ran.Ops != 1 || ran.Probes != 5*probesPerKind {
		t.Fatalf("replayed %+v, want 2 recoveries, one plan op and a probe of every other kind", ran)
	}
	counts := map[string]int{}
	for _, s := range rec.spans {
		if s.Kind == reqRestart {
			counts[s.Name]++
		}
	}
	want := map[string]int{"server.serve": 2, "persist.read": 2, "deployment.decode": 4, "deployment.system": 4, "persist.replay": 2, "persist.decode": 2}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("recovery span counts %v, want %v", counts, want)
	}
	if got := len(rec.counts["persist.replay_ms_per_record"]); got != 2 {
		t.Errorf("%d per-record replay costs, want one per recovery", got)
	}
}
