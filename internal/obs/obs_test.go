package obs

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeExport(t *testing.T) {
	tr := NewTrace("req-1")
	ctx := WithTrace(context.Background(), tr)

	ctx1, root := Start(ctx, "root")
	if root == nil {
		t.Fatal("Start with a trace attached returned a nil span")
	}
	_, childA := Start(ctx1, "a")
	childA.Int("n", 42).Str("kind", "test")
	childA.End()
	ctx2, childB := Start(ctx1, "b")
	_, grand := Start(ctx2, "b.1")
	grand.End()
	childB.End()
	root.End()

	if got := tr.SpanCount(); got != 4 {
		t.Fatalf("SpanCount = %d, want 4", got)
	}
	ex := tr.Export()
	if ex.ID != "req-1" {
		t.Fatalf("export ID = %q", ex.ID)
	}
	if len(ex.Spans) != 1 || ex.Spans[0].Name != "root" {
		t.Fatalf("want a single root span, got %+v", ex.Spans)
	}
	r := ex.Spans[0]
	if len(r.Spans) != 2 || r.Spans[0].Name != "a" || r.Spans[1].Name != "b" {
		t.Fatalf("root children = %+v", r.Spans)
	}
	if len(r.Spans[1].Spans) != 1 || r.Spans[1].Spans[0].Name != "b.1" {
		t.Fatalf("grandchildren = %+v", r.Spans[1].Spans)
	}
	a := r.Spans[0]
	if a.Attrs["n"] != int64(42) || a.Attrs["kind"] != "test" {
		t.Fatalf("attrs = %+v", a.Attrs)
	}
	if a.DurationMicros < 0 || a.StartMicros < 0 {
		t.Fatalf("negative timings: %+v", a)
	}
}

func TestEndTwiceKeepsFirstDuration(t *testing.T) {
	tr := NewTrace("x")
	ctx := WithTrace(context.Background(), tr)
	_, sp := Start(ctx, "s")
	sp.End()
	d1 := tr.Export().Spans[0].DurationMicros
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d2 := tr.Export().Spans[0].DurationMicros; d2 != d1 {
		t.Fatalf("second End changed duration: %d -> %d", d1, d2)
	}
}

// TestNoRecorderZeroAlloc pins the tentpole's hot-path contract: starting,
// annotating and ending a span on a context with no trace attached must not
// allocate at all.
func TestNoRecorderZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := Start(ctx, "core.forward")
		sp.Int("nodes", 7)
		sp.Str("phase", "forward")
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("no-recorder span path allocates %v allocs/op, want 0", allocs)
	}
}

// TestConcurrentSpanRecording exercises many goroutines appending spans to
// one trace (the batch-clean shape) and is meant to run under -race.
func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTrace("concurrent")
	ctx := WithTrace(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, sp := Start(ctx, "worker")
				sp.Int("worker", int64(w)).End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if got := tr.SpanCount(); got != 1+workers*perWorker {
		t.Fatalf("SpanCount = %d, want %d", got, 1+workers*perWorker)
	}
	ex := tr.Export()
	if len(ex.Spans) != 1 || len(ex.Spans[0].Spans) != workers*perWorker {
		t.Fatalf("export shape wrong: %d roots, %d children", len(ex.Spans), len(ex.Spans[0].Spans))
	}
}

// TestRecorderRingEviction checks a per-endpoint FIFO ring (the 5xx tier):
// it holds the newest errorRingSize traces, lists them newest first, honors
// a Snapshot limit, and an evicted trace no longer resolves.
func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder()
	n := errorRingSize + 6
	for i := 0; i < n; i++ {
		r.RecordRequest(NewTrace("t"+strconv.Itoa(i)), "persist.flush", time.Millisecond, 500)
	}
	if r.Len() != errorRingSize {
		t.Fatalf("Len = %d, want %d", r.Len(), errorRingSize)
	}
	if r.Added() != uint64(n) {
		t.Fatalf("Added = %d, want %d", r.Added(), n)
	}
	snap := r.Snapshot(0)
	if len(snap) != errorRingSize {
		t.Fatalf("Snapshot holds %d traces, want %d", len(snap), errorRingSize)
	}
	for i, tr := range snap {
		want := "t" + strconv.Itoa(n-1-i) // newest first
		if tr.ID() != want {
			t.Fatalf("snap[%d] = %q, want %q", i, tr.ID(), want)
		}
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].ID() != "t"+strconv.Itoa(n-1) {
		t.Fatalf("Snapshot(2) = %v", got)
	}
	if tr := r.Find("t" + strconv.Itoa(n-3)); tr == nil {
		t.Fatal("Find of a held trace = nil")
	}
	if tr := r.Find("t2"); tr != nil {
		t.Fatal("Find(t2) returned an evicted trace")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.RecordRequest(NewTrace(fmt.Sprintf("w%d-%d", w, i)), "persist.flush", time.Millisecond, 0)
				_ = r.Snapshot(3)
			}
		}(w)
	}
	wg.Wait()
	if r.Added() != 400 {
		t.Fatalf("Added = %d, want 400", r.Added())
	}
}

func TestNilRecorderAndNilSpanAreNoOps(t *testing.T) {
	var r *Recorder
	r.RecordRequest(NewTrace("x"), "persist.flush", time.Millisecond, 0) // must not panic
	if r.Snapshot(1) != nil || r.Len() != 0 || r.Added() != 0 || r.Find("x") != nil {
		t.Fatal("nil recorder should report empty")
	}
	var sp *Span
	sp.End()
	sp.Int("k", 1)
	sp.Str("k", "v") // must not panic
}

// TestTailRetentionSlowSurvivesFlood is the retention policy's core claim:
// a slow trace must survive an arbitrary flood of fast requests on the same
// endpoint instead of being FIFO-evicted.
func TestTailRetentionSlowSurvivesFlood(t *testing.T) {
	r := NewRecorder()
	slow := NewTrace("slow-one")
	if !r.RecordRequest(slow, "clean", 5*time.Second, 201) {
		t.Fatal("slow trace was not admitted")
	}
	for i := 0; i < 10000; i++ {
		r.RecordRequest(NewTrace("fast-"+strconv.Itoa(i)), "clean", time.Millisecond, 200)
	}
	if got := r.Find("slow-one"); got != slow {
		t.Fatal("slow trace evicted by fast-request flood")
	}
	if !r.Held("slow-one") {
		t.Fatal("Held(slow-one) = false for a retained trace")
	}
	heldFast := 0
	for i := 0; i < 10000; i++ {
		if r.Held("fast-" + strconv.Itoa(i)) {
			heldFast++
		}
	}
	if heldFast > tailReservoirSize+sampleRingSize {
		t.Fatalf("%d fast traces held, want <= %d (reservoir fill + sample)", heldFast, tailReservoirSize+sampleRingSize)
	}
	// Retention stays bounded: reservoir + sample + error tiers, not 10k.
	if held := r.Len(); held > tailReservoirSize+sampleRingSize+errorRingSize {
		t.Fatalf("Len = %d, want <= %d", held, tailReservoirSize+sampleRingSize+errorRingSize)
	}
	if r.Added() != 10001 {
		t.Fatalf("Added = %d, want 10001", r.Added())
	}
}

// TestTailRetentionConcurrent floods one endpoint from many goroutines while
// a reader snapshots — the -race version of the survival claim.
func TestTailRetentionConcurrent(t *testing.T) {
	r := NewRecorder()
	slow := NewTrace("slow-concurrent")
	r.RecordRequest(slow, "clean", 10*time.Second, 201)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1250; i++ {
				r.RecordRequest(NewTrace(fmt.Sprintf("f%d-%d", w, i)), "clean", time.Millisecond, 200)
				if i%100 == 0 {
					_ = r.Snapshot(5)
					_ = r.Held("slow-concurrent")
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Find("slow-concurrent") != slow {
		t.Fatal("slow trace evicted under concurrent flood")
	}
}

// TestErrorTraceRetention checks 5xx traces are always admitted and kept in
// a bounded per-endpoint ring, independent of their duration.
func TestErrorTraceRetention(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < tailReservoirSize+5; i++ {
		r.RecordRequest(NewTrace("pad-"+strconv.Itoa(i)), "clean", time.Hour, 200)
	}
	if !r.RecordRequest(NewTrace("err-1"), "clean", time.Microsecond, 500) {
		t.Fatal("fast 5xx trace rejected; every 5xx must be admitted")
	}
	if !r.Held("err-1") {
		t.Fatal("5xx trace not retained")
	}
	for i := 0; i < 3*errorRingSize; i++ {
		if !r.RecordRequest(NewTrace("err-flood-"+strconv.Itoa(i)), "clean", time.Microsecond, 503) {
			t.Fatalf("5xx trace %d rejected", i)
		}
	}
	if r.Held("err-1") {
		t.Fatal("oldest 5xx trace should have been displaced by newer errors")
	}
	if !r.Held("err-flood-" + strconv.Itoa(3*errorRingSize-1)) {
		t.Fatal("newest 5xx trace missing")
	}
}

// TestRecorderEndpointsIsolated checks one endpoint's flood cannot evict
// another endpoint's tail.
func TestRecorderEndpointsIsolated(t *testing.T) {
	r := NewRecorder()
	r.RecordRequest(NewTrace("stream-slow"), "stream_readings", 2*time.Second, 200)
	for i := 0; i < 5000; i++ {
		r.RecordRequest(NewTrace("c-"+strconv.Itoa(i)), "clean", time.Second, 200)
	}
	if !r.Held("stream-slow") {
		t.Fatal("clean-endpoint flood evicted a stream_readings tail trace")
	}
}

// TestRecordRequestNil covers the nil-recorder and nil-trace contracts.
func TestRecordRequestNil(t *testing.T) {
	var r *Recorder
	if r.RecordRequest(NewTrace("x"), "clean", time.Second, 200) {
		t.Fatal("nil recorder must not retain")
	}
	if r.Held("x") {
		t.Fatal("nil recorder Held must be false")
	}
	r2 := NewRecorder()
	if r2.RecordRequest(nil, "clean", time.Second, 200) {
		t.Fatal("nil trace must not be retained")
	}
}

// TestSnapshotMergesTiers checks Snapshot lists every endpoint and tier
// together (request traces beside persistence traces, reservoir beside 5xx
// ring), newest first, and Find resolves duplicate IDs to the newest.
func TestSnapshotMergesTiers(t *testing.T) {
	r := NewRecorder()
	r.RecordRequest(NewTrace("req-1"), "clean", time.Second, 200)
	r.RecordRequest(NewTrace("req-err"), "clean", time.Millisecond, 500)
	dup1 := NewTrace("persist.flush")
	dup2 := NewTrace("persist.flush")
	r.RecordRequest(dup1, "persist.flush", time.Millisecond, 0)
	r.RecordRequest(dup2, "persist.flush", time.Millisecond, 0)
	snap := r.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("Snapshot holds %d traces, want 4", len(snap))
	}
	if snap[0] != dup2 || snap[1] != dup1 || snap[2].ID() != "req-err" || snap[3].ID() != "req-1" {
		t.Fatalf("snapshot order wrong: %s %s %s %s", snap[0].ID(), snap[1].ID(), snap[2].ID(), snap[3].ID())
	}
	if got := r.Find("persist.flush"); got != dup2 {
		t.Fatal("Find(dup) should return the newest duplicate")
	}
	if !r.Held("persist.flush") || !r.Held("req-1") || !r.Held("req-err") {
		t.Fatal("Held missing merged-tier traces")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("request ID %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

// BenchmarkStartNoRecorder measures the permanent instrumentation cost paid
// by every Build when no recorder is attached.
func BenchmarkStartNoRecorder(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, "core.forward")
		sp.Int("nodes", int64(i))
		sp.End()
		_ = c
	}
}
