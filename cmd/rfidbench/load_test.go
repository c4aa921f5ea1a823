package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	rfidclean "repro"
)

// stallOnce returns a handler that answers 2xx at once, except that the
// first request whose path has the given suffix sleeps for stall first.
func stallOnce(suffix string, stall time.Duration) http.Handler {
	var once sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, suffix) {
			once.Do(func() { time.Sleep(stall) })
		}
		switch {
		case r.URL.Path == "/v1/stream":
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"s1"}`))
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"t1"}`))
		default:
			w.Write([]byte(`{}`))
		}
	})
}

func testSequence(n int) rfidclean.ReadingSequence {
	seq := make(rfidclean.ReadingSequence, n)
	for i := range seq {
		seq[i] = rfidclean.Reading{Time: i, Readers: rfidclean.NewReaderSet(1)}
	}
	return seq
}

func TestOpenLoopLatencyCountsStallFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := httptest.NewServer(stallOnce("/v1/clean", stall))
	defer srv.Close()
	p := &plan{Deps: []*depInput{{Seqs: []rfidclean.ReadingSequence{testSequence(3)}}}}
	for i := 0; i < 10; i++ {
		p.Ops = append(p.Ops, op{At: time.Duration(i) * 20 * time.Millisecond, Kind: kindClean})
	}
	d := newLoader(srv.URL, p, []string{"d1"}, nil)
	d.run(context.Background(), nil)
	if d.stats.ops != 10 || d.stats.failed != 0 || d.stats.measured != 10 || len(d.stats.samples) != 10 {
		t.Fatalf("ops %d failed %d measured %d samples %d (first error %v)", d.stats.ops, d.stats.failed, d.stats.measured, len(d.stats.samples), d.stats.firstErr)
	}
	if got := d.stats.latencies([]string{reqClean}, false, 1); len(got) != 10 {
		t.Errorf("%d clean latencies, want 10", len(got))
	}
	// One connection: op 0 stalls, and ops 1..9, due every 20 ms, queue
	// behind it. Their latencies must include that wait even though each of
	// their own requests is answered at once.
	for i, s := range d.stats.samples {
		due := time.Duration(i) * 20 * time.Millisecond
		if s.Latency < stall-due {
			t.Errorf("op %d: latency %s hides the stall (want >= %s)", i, s.Latency, stall-due)
		}
		if i > 0 && s.Service > stall/2 {
			t.Errorf("op %d: service time %s, want the fast answer", i, s.Service)
		}
	}
}

func TestStreamFollowUpsTimedFromSend(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := httptest.NewServer(stallOnce("/readings", stall))
	defer srv.Close()
	p := &plan{
		Deps: []*depInput{{Seqs: []rfidclean.ReadingSequence{testSequence(10)}}},
		Ops:  []op{{Kind: kindStream}},
	}
	d := newLoader(srv.URL, p, []string{"d1"}, nil)
	d.run(context.Background(), nil)
	if d.stats.failed != 0 {
		t.Fatalf("stream failed: %v", d.stats.firstErr)
	}
	var kinds []string
	for _, s := range d.stats.samples {
		kinds = append(kinds, s.Kind)
	}
	if got := strings.Join(kinds, ","); got != "open,readings,readings,close" {
		t.Fatalf("requests %s", got)
	}
	if s := d.stats.samples[1]; s.Latency < stall {
		t.Errorf("stalled chunk latency %s, want >= %s", s.Latency, stall)
	}
	// The second chunk is sent after the stall and timed from its send, so
	// the stall does not spill into it.
	if s := d.stats.samples[2]; s.Latency > stall/2 || s.Latency != s.Service {
		t.Errorf("follow-up chunk latency %s (service %s), want send-timed and fast", s.Latency, s.Service)
	}
}

func TestWarmUpLeavesNoSamplesAndWindowStartsAfterIt(t *testing.T) {
	srv := httptest.NewServer(stallOnce("/never", 0))
	defer srv.Close()
	p := &plan{Deps: []*depInput{{Seqs: []rfidclean.ReadingSequence{testSequence(3)}}}}
	// Two warm-up ops, then three measured ones.
	for i := 0; i < 5; i++ {
		p.Ops = append(p.Ops, op{At: time.Duration(i) * 10 * time.Millisecond, Warm: i < 2, Kind: kindClean})
	}
	d := newLoader(srv.URL, p, []string{"d1"}, nil)
	var dispatchedBefore []int
	d.run(context.Background(), func() {
		d.stats.mu.Lock()
		dispatchedBefore = append(dispatchedBefore, len(d.stats.lags))
		d.stats.mu.Unlock()
	})
	if !reflect.DeepEqual(dispatchedBefore, []int{2}) {
		t.Errorf("window started after %v dispatched ops, want once after 2", dispatchedBefore)
	}
	if d.stats.ops != 5 || d.stats.measured != 3 || len(d.stats.samples) != 3 {
		t.Errorf("ops %d measured %d samples %d, want 5, 3, 3", d.stats.ops, d.stats.measured, len(d.stats.samples))
	}
}

func TestLatenciesScaleTheRequestedKinds(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	st := &loadStats{samples: []sample{
		{Kind: reqClean, Latency: ms(5), Service: ms(1)},
		{Kind: reqReadings, Latency: ms(7), Service: ms(6)},
		{Kind: reqClean, Latency: ms(2), Service: ms(2)},
		{Kind: reqClose, Latency: ms(4), Service: ms(4)},
	}}
	for _, tc := range []struct {
		kinds   []string
		service bool
		scale   float64
		want    []float64
	}{
		{[]string{reqClean}, false, 1, []float64{5, 2}},
		{[]string{reqClean}, true, 1, []float64{1, 2}},
		{[]string{reqReadings, reqClose}, false, 0.5, []float64{3.5, 2}},
	} {
		if got := st.latencies(tc.kinds, tc.service, tc.scale); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("latencies(%v, service %v, scale %v) = %v, want %v", tc.kinds, tc.service, tc.scale, got, tc.want)
		}
	}
}

// delayAll returns a handler that answers every request with 201 after d.
func delayAll(d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id":"t1"}`))
	})
}

func TestSpeedKernelRunsOnlyWhileIdleBeforeMeasuredOps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		delay    time.Duration
		min, max int
	}{
		// Each op is answered at once: the generator idles 20 ms before
		// every measured op and times the kernel in almost every gap.
		{"idle", 0, 7, 10},
		// Each op takes longer than the gap to the next one: the generator
		// is never idle ahead of a due op, so the kernel never runs.
		{"busy", 25 * time.Millisecond, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(delayAll(tc.delay))
			defer srv.Close()
			p := &plan{Deps: []*depInput{{Seqs: []rfidclean.ReadingSequence{testSequence(3)}}}}
			for i := 0; i < 11; i++ {
				p.Ops = append(p.Ops, op{At: time.Duration(i) * 20 * time.Millisecond, Warm: i == 0, Kind: kindClean})
			}
			d := newLoader(srv.URL, p, []string{"d1"}, nil)
			d.run(context.Background(), nil)
			if d.stats.failed != 0 {
				t.Fatalf("ops failed: %v", d.stats.firstErr)
			}
			if n := len(d.stats.kernelMs); n < tc.min || n > tc.max {
				t.Errorf("kernel ran %d times in the window, want %d to %d", n, tc.min, tc.max)
			}
		})
	}
}
