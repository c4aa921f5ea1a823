// Package obs is the stdlib-only observability layer shared by the cleaning
// core and the HTTP query head: context-propagated spans recorded into
// per-request traces, a recorder that retains the tail of them per endpoint,
// and request-ID generation.
//
// The design optimizes for the uninstrumented case. A span is started with
//
//	ctx, span := obs.Start(ctx, "core.forward")
//	defer span.End()
//
// and when the context carries no *Trace, Start returns the context
// unchanged and a nil *Span whose methods are all no-ops — zero allocations,
// a few nanoseconds — so the cleaning hot path can be instrumented
// permanently without taxing library users or benchmarks that never attach a
// recorder. When a trace is attached (the server's middleware does this per
// request), spans append into the trace under a mutex, so concurrent
// goroutines sharing one request context (batch-clean workers) record
// safely.
//
// Timing uses time.Now/time.Since, whose monotonic-clock reading makes span
// durations immune to wall-clock steps.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Exactly one of Str and Int is
// meaningful, selected by IsInt; the two-field shape avoids boxing values
// into interfaces on the recording path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// Trace is the span tree of one unit of work (typically one HTTP request),
// identified by its request ID. Spans are stored flat with parent indices
// and assembled into a tree on export. All methods are safe for concurrent
// use.
type Trace struct {
	id    string
	begin time.Time

	mu    sync.Mutex
	spans []spanRecord
}

type spanRecord struct {
	name     string
	parent   int32 // index into Trace.spans, -1 for roots
	start    time.Time
	duration time.Duration
	ended    bool
	attrs    []Attr
}

// NewTrace returns an empty trace identified by id (typically the request
// ID), beginning now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, begin: time.Now()}
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// SpanCount returns how many spans have been started on the trace.
func (t *Trace) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// start appends a new span record and returns its index.
func (t *Trace) start(name string, parent int32) int32 {
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanRecord{name: name, parent: parent, start: time.Now()})
	t.mu.Unlock()
	return idx
}

// Span is a handle on one span of a trace. The zero of usefulness: a nil
// *Span (returned by Start when no trace is attached) accepts every method
// call as a no-op, so instrumentation sites never branch on whether
// recording is active.
type Span struct {
	tr  *Trace
	idx int32
}

// End stamps the span's duration. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	r := &s.tr.spans[s.idx]
	if !r.ended {
		r.ended = true
		r.duration = time.Since(r.start)
	}
	s.tr.mu.Unlock()
}

// Int attaches an integer attribute and returns the span for chaining.
func (s *Span) Int(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	r := &s.tr.spans[s.idx]
	r.attrs = append(r.attrs, Attr{Key: key, Int: v, IsInt: true})
	s.tr.mu.Unlock()
	return s
}

// Str attaches a string attribute and returns the span for chaining.
func (s *Span) Str(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	r := &s.tr.spans[s.idx]
	r.attrs = append(r.attrs, Attr{Key: key, Str: v})
	s.tr.mu.Unlock()
	return s
}

// SpanExport is the JSON shape of one span: timings as microsecond offsets
// from the trace begin, attributes flattened to a map, children nested.
type SpanExport struct {
	Name           string         `json:"name"`
	StartMicros    int64          `json:"startMicros"`
	DurationMicros int64          `json:"durationMicros"`
	Attrs          map[string]any `json:"attrs,omitempty"`
	Spans          []*SpanExport  `json:"spans,omitempty"`
}

// TraceExport is the JSON shape of a whole trace.
type TraceExport struct {
	ID    string        `json:"id"`
	Begin time.Time     `json:"begin"`
	Spans []*SpanExport `json:"spans"`
}

// Export snapshots the trace as a span tree. Spans not yet ended report
// their elapsed time so far. Children appear in start order.
func (t *Trace) Export() TraceExport {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceExport{ID: t.id, Begin: t.begin, Spans: []*SpanExport{}}
	nodes := make([]*SpanExport, len(t.spans))
	for i := range t.spans {
		r := &t.spans[i]
		d := r.duration
		if !r.ended {
			d = time.Since(r.start)
		}
		n := &SpanExport{
			Name:           r.name,
			StartMicros:    r.start.Sub(t.begin).Microseconds(),
			DurationMicros: d.Microseconds(),
		}
		if len(r.attrs) > 0 {
			n.Attrs = make(map[string]any, len(r.attrs))
			for _, a := range r.attrs {
				if a.IsInt {
					n.Attrs[a.Key] = a.Int
				} else {
					n.Attrs[a.Key] = a.Str
				}
			}
		}
		nodes[i] = n
		if p := r.parent; p >= 0 {
			nodes[p].Spans = append(nodes[p].Spans, n)
		} else {
			out.Spans = append(out.Spans, n)
		}
	}
	return out
}

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived ID rather than panicking in a serving path.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}
