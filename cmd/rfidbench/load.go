package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// This file is the open-loop load generator. Every op has a due time on the
// schedule and a dispatcher hands it to a fixed pool of connections when it
// comes due, whatever earlier ops are doing. An op's first request is timed
// from its due time, not from when it was sent, so a stall that delays later
// ops shows in their latencies instead of hiding as generator lag
// (coordinated omission). Follow-up requests inside a stream session are
// timed from send. The generator's own lateness is recorded separately as a
// validity check. Warm-up ops run and are checked like any other, but leave
// no samples.

// reqTimeout bounds one request; past it the request counts as failed.
const reqTimeout = 30 * time.Second

// loadConns is the number of load connections. With one, and at most one
// SSE subscriber beside it, the load never holds more connections than the
// reference host has cores, and no two of its requests compete for them.
const loadConns = 1

// Request kinds a sample is filed under. A pattern op asks the match
// endpoint; a stream op sends open, readings, smooth and close requests. A
// restart is a recovery in the traced replay.
const (
	reqClean    = "clean"
	reqBatch    = "batch"
	reqStay     = "stay"
	reqMatch    = "match"
	reqTop      = "top"
	reqOpen     = "open"
	reqReadings = "readings"
	reqSmooth   = "smooth"
	reqClose    = "close"
	reqRestart  = "restart"
)

// sample is one measured request.
type sample struct {
	Kind    string        // request kind, one of the req* constants
	Latency time.Duration // from the op's due time (first request) or from send (follow-ups)
	Service time.Duration // send to response fully read
}

// loadStats accumulates a window's measurements; safe for concurrent use.
type loadStats struct {
	mu       sync.Mutex
	samples  []sample
	kernelMs []float64 // speed kernel times while the window ran, ms
	lags     []float64 // generator lateness per op, ms
	ops      int       // ops run, warm-up included
	failed   int
	measured int // ops of the window that completed
	firstErr error
}

func (s *loadStats) record(x sample) {
	s.mu.Lock()
	s.samples = append(s.samples, x)
	s.mu.Unlock()
}

func (s *loadStats) finish(o op, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	switch {
	case err != nil:
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
	case !o.Warm:
		s.measured++
	}
}

func (s *loadStats) lag(d time.Duration) {
	s.mu.Lock()
	s.lags = append(s.lags, ms(d))
	s.mu.Unlock()
}

// latencies returns, in ms, the latency (or service time) of every request
// of the given kinds, each multiplied by scale.
func (s *loadStats) latencies(kinds []string, service bool, scale float64) []float64 {
	var out []float64
	for _, x := range s.samples {
		if !slices.Contains(kinds, x.Kind) {
			continue
		}
		v := x.Latency
		if service {
			v = x.Service
		}
		out = append(out, ms(v)*scale)
	}
	return out
}

type bodyKey struct {
	kind     string
	dep, tag int
}

// loader runs one plan's ops against a daemon.
type loader struct {
	base    string
	client  *http.Client
	sse     *http.Client // no client timeout: subscribers live for the session
	plan    *plan
	depIDs  []string
	targets [][]string // per deployment: prefilled trajectory ids
	bodies  map[bodyKey][]byte
	chunks  map[bodyKey][][]byte
	stats   loadStats

	inflight atomic.Int32  // ops dispatched and not yet finished
	idle     chan struct{} // signalled when inflight drops to 0
}

// kernelWhenIdle waits until no op is in flight and then, if the next op,
// o, is due more than speedHeadroom later, times one run of the speed
// kernel, kept when o is measured.
func (d *loader) kernelWhenIdle(ctx context.Context, o op, due time.Time) {
	for d.inflight.Load() > 0 {
		wait := time.Until(due) - speedHeadroom
		if wait <= 0 {
			return
		}
		select {
		case <-d.idle:
		case <-time.After(wait):
			return
		case <-ctx.Done():
			return
		}
	}
	if time.Until(due) <= speedHeadroom {
		return
	}
	took := timeKernel()
	if !o.Warm {
		d.stats.mu.Lock()
		d.stats.kernelMs = append(d.stats.kernelMs, took)
		d.stats.mu.Unlock()
	}
}

// newHTTPClient returns a client holding at most conns idle connections.
func newHTTPClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// newLoader encodes every request body up front so client-side encoding
// stays out of the measured latencies.
func newLoader(base string, p *plan, depIDs []string, targets [][]string) *loader {
	d := &loader{
		base:    base,
		client:  newHTTPClient(loadConns, reqTimeout),
		sse:     newHTTPClient(1, 0),
		plan:    p,
		depIDs:  depIDs,
		targets: targets,
		bodies:  make(map[bodyKey][]byte),
		chunks:  make(map[bodyKey][][]byte),
		idle:    make(chan struct{}, 1),
	}
	for _, o := range p.Ops {
		k := bodyKey{o.Kind, o.Dep, o.Tag}
		if _, done := d.bodies[k]; done {
			continue
		}
		dep := p.Deps[o.Dep]
		switch o.Kind {
		case kindClean:
			d.bodies[k] = dep.cleanBody(depIDs[o.Dep], o.Tag)
		case kindBatch:
			d.bodies[k] = dep.batchBody(depIDs[o.Dep], o.Tag)
		case kindStream:
			d.bodies[k] = dep.openBody(depIDs[o.Dep], o.Tag)
			d.chunks[k] = dep.chunks(o.Tag)
		}
	}
	return d
}

// run drives the plan's ops over loadConns connections and returns when every
// dispatched op has finished. startWindow is called just before the first
// measured op is dispatched. While it waits for an op to come due with
// nothing in flight, run times the speed kernel once. Ops still
// undispatched when ctx ends count as failed.
func (d *loader) run(ctx context.Context, startWindow func()) {
	type job struct {
		o   op
		due time.Time
	}
	jobs := make(chan job, len(d.plan.Ops)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				d.stats.finish(j.o, d.execute(ctx, j.o, j.due))
				if d.inflight.Add(-1) == 0 {
					select {
					case d.idle <- struct{}{}:
					default:
					}
				}
			}
		}()
	}
	start := time.Now()
	dispatched, inWindow := 0, false
dispatch:
	for _, o := range d.plan.Ops {
		due := start.Add(o.At)
		d.kernelWhenIdle(ctx, o, due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		}
		if !o.Warm && !inWindow {
			inWindow = true
			if startWindow != nil {
				startWindow()
			}
		}
		d.stats.lag(time.Since(due))
		d.inflight.Add(1)
		jobs <- job{o, due}
		dispatched++
	}
	close(jobs)
	wg.Wait()
	for _, o := range d.plan.Ops[dispatched:] {
		d.stats.finish(o, fmt.Errorf("not dispatched: %w", ctx.Err()))
	}
}

// request is one HTTP request of an op.
type request struct {
	kind, method, path, ctype string
	body                      []byte
}

// execute runs one op and returns the first error of its requests.
func (d *loader) execute(ctx context.Context, o op, due time.Time) error {
	k := bodyKey{o.Kind, o.Dep, o.Tag}
	switch o.Kind {
	case kindClean:
		_, err := d.timed(ctx, o, due, request{kind: reqClean, method: http.MethodPost, path: "/v1/clean", ctype: "application/json", body: d.bodies[k]})
		return err
	case kindBatch:
		_, err := d.timed(ctx, o, due, request{kind: reqBatch, method: http.MethodPost, path: "/v1/clean/batch", ctype: "application/json", body: d.bodies[k]})
		return err
	case kindStay, kindPattern, kindTop:
		_, err := d.timed(ctx, o, due, request{kind: requestKind(o.Kind), method: http.MethodGet, path: queryPath(o, d.targets[o.Dep][o.Tag])})
		return err
	case kindStream:
		return d.stream(ctx, o, due, k)
	}
	return fmt.Errorf("op kind %q cannot be driven over HTTP", o.Kind)
}

// requestKind names the request a query op kind sends.
func requestKind(kind string) string {
	switch kind {
	case kindStay:
		return reqStay
	case kindPattern:
		return reqMatch
	}
	return reqTop
}

// stream drives one session: open, optionally attach an SSE subscriber,
// post the tag's chunks (smoothing once midway when asked), close, and wait
// for the subscriber to see the close event. Waiting keeps at most one
// subscriber connection open beside the worker's.
func (d *loader) stream(ctx context.Context, o op, due time.Time, k bodyKey) error {
	body, err := d.timed(ctx, o, due, request{kind: reqOpen, method: http.MethodPost, path: "/v1/stream", ctype: "application/json", body: d.bodies[k]})
	if err != nil {
		return err
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &opened); err != nil || opened.ID == "" {
		return fmt.Errorf("stream open: bad answer %q", body)
	}
	path := "/v1/stream/" + opened.ID
	subCtx, cancelSub := context.WithCancel(ctx)
	defer cancelSub()
	var subDone chan error
	if o.Subscribe {
		ready := make(chan struct{})
		subDone = make(chan error, 1)
		go func() { subDone <- subscribe(subCtx, d.sse, d.base+path+"/events", ready) }()
		select {
		case <-ready:
		case <-ctx.Done():
		}
	}
	chunks := d.chunks[k]
	for c, chunk := range chunks {
		if _, err := d.timed(ctx, o, time.Time{}, request{kind: reqReadings, method: http.MethodPost, path: path + "/readings", ctype: server.ContentTypeBinary, body: chunk}); err != nil {
			return err
		}
		if o.Smooth && c == smoothAfter(len(chunks)) {
			if _, err := d.timed(ctx, o, time.Time{}, request{kind: reqSmooth, method: http.MethodPost, path: path + "/smooth", ctype: "application/json"}); err != nil {
				return err
			}
		}
	}
	if _, err := d.timed(ctx, o, time.Time{}, request{kind: reqClose, method: http.MethodDelete, path: path}); err != nil {
		return err
	}
	if subDone != nil {
		return <-subDone
	}
	return nil
}

// timed sends one request of op o and returns the body of a 2xx answer; any
// other answer is an error. Latency runs from due when it is set (the op's
// first request) and from send otherwise. A warm-up op's requests leave no
// sample.
func (d *loader) timed(ctx context.Context, o op, due time.Time, r request) ([]byte, error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, d.base+r.path, rd)
	if err != nil {
		return nil, err
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if !o.Warm {
		d.stats.record(sample{Kind: r.kind, Latency: end.Sub(due), Service: end.Sub(sent)})
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", r.method, r.path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// subscribe consumes one session's SSE stream from its first event
// (Last-Event-ID: 0 replays history) until the close event. ready is closed
// once the subscription is established or has failed. A hang-up before the
// close event, including the hub's "dropped" eviction notice, is an error.
func subscribe(ctx context.Context, client *http.Client, url string, ready chan<- struct{}) error {
	defer func() {
		if ready != nil {
			close(ready)
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "0")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("sse subscribe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sse subscribe: %s", resp.Status)
	}
	close(ready)
	ready = nil
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "event: close" {
			return nil
		}
		if strings.HasPrefix(line, ": dropped") {
			return fmt.Errorf("sse subscriber evicted")
		}
	}
	return fmt.Errorf("sse stream ended before the close event")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
