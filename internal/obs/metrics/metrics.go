// Package metrics is the stdlib-only metrics registry shared by the query
// head (internal/server) and the shard router (internal/shard). It renders
// the Prometheus text exposition format (version 0.0.4) directly: the
// instrument set is small and fixed — counters, gauges, counters fanned out
// over label values, single-label gauges, fixed-bound histograms and their
// single-label fan-out — so a client library would dwarf its callers.
//
// Each instrument is registered once, with its name, help text and type, and
// the registry renders families in registration order. Series within a
// labeled family render in sorted label-value order, so scrapes are
// deterministic and diffable. Registration happens at construction time;
// recording and rendering are safe for concurrent use. Counters and gauges
// record with one atomic add, a histogram observation takes its own mutex.
package metrics

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the exposition format's media type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// LatencyBounds returns the request-latency bucket ladder (seconds) every
// latency histogram in the repository uses, so router-side, server-side and
// client-side (cmd/rfidload) distributions line up bucket for bucket.
func LatencyBounds() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// FormatFloat renders a sample value or bucket bound the way the exposition
// expects: the shortest decimal that round-trips.
func FormatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Registry renders its registered families in registration order.
type Registry struct {
	families []family
}

type family struct {
	name, help, typ string // name "" writes its own headers (GoRuntime)
	write           func(w io.Writer, name string)
}

// Func registers a family whose series the caller renders: write receives
// the family name and emits every sample line after the HELP/TYPE header.
func (r *Registry) Func(name, help, typ string, write func(w io.Writer, name string)) {
	r.families = append(r.families, family{name, help, typ, write})
}

// WriteText renders every family in the text exposition format.
func (r *Registry) WriteText(w io.Writer) {
	for _, f := range r.families {
		if f.name != "" {
			writeHeader(w, f.name, f.help, f.typ)
		}
		f.write(w, f.name)
	}
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// GoRuntime registers the go_* families, sampled from the runtime at scrape
// time (one ReadMemStats per scrape) and rendered in sorted name order.
func (r *Registry) GoRuntime() {
	r.Func("", "", "", func(w io.Writer, _ string) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		writeHeader(w, "go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", "counter")
		fmt.Fprintf(w, "go_gc_pause_seconds_total %s\n", FormatFloat(float64(ms.PauseTotalNs)/1e9))
		writeHeader(w, "go_gc_runs_total", "Completed GC cycles.", "counter")
		fmt.Fprintf(w, "go_gc_runs_total %d\n", ms.NumGC)
		writeHeader(w, "go_gomaxprocs", "Value of GOMAXPROCS.", "gauge")
		fmt.Fprintf(w, "go_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
		writeHeader(w, "go_goroutines", "Number of live goroutines.", "gauge")
		fmt.Fprintf(w, "go_goroutines %d\n", runtime.NumGoroutine())
		writeHeader(w, "go_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
		fmt.Fprintf(w, "go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	})
}

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Uint64 }

// Counter registers a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.Func(name, help, "counter", func(w io.Writer, name string) { fmt.Fprintf(w, "%s %d\n", name, c.Value()) })
	return c
}

func (c *Counter) Inc()          { c.n.Add(1) }
func (c *Counter) Add(d uint64)  { c.n.Add(d) }
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ n atomic.Int64 }

// Gauge registers a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.Func(name, help, "gauge", func(w io.Writer, name string) { fmt.Fprintf(w, "%s %d\n", name, g.Value()) })
	return g
}

func (g *Gauge) Set(v int64)  { g.n.Store(v) }
func (g *Gauge) Add(d int64)  { g.n.Add(d) }
func (g *Gauge) Value() int64 { return g.n.Load() }

// vec maps label-value keys to lazily created series.
type vec[T any] struct {
	mu     sync.Mutex
	vals   map[string]*T
	create func() *T // nil: new(T)
}

func (v *vec[T]) series(key string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.vals[key]
	if s == nil {
		if v.vals == nil {
			v.vals = make(map[string]*T)
		}
		if v.create != nil {
			s = v.create()
		} else {
			s = new(T)
		}
		v.vals[key] = s
	}
	return s
}

func (v *vec[T]) lookup(key string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.vals[key]
}

// sorted returns the keys in order with their series, snapshotted under the
// lock so rendering does not hold it.
func (v *vec[T]) sorted() ([]string, []*T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.vals))
	for k := range v.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]*T, len(keys))
	for i, k := range keys {
		series[i] = v.vals[k]
	}
	return keys, series
}

// CounterVec fans a counter out over the value combinations of a fixed
// label list (e.g. {mode, outcome}).
type CounterVec struct {
	labels       []string
	vec[Counter] // key: label values joined with \x00
}

// CounterVec registers a counter family over the given labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels}
	r.Func(name, help, "counter", v.write)
	return v
}

func (v *CounterVec) Inc(values ...string) { v.Add(1, values...) }

// Add adds d to the series of the given label values, one per label.
func (v *CounterVec) Add(d uint64, values ...string) {
	if len(values) != len(v.labels) {
		panic("metrics: counter label arity mismatch")
	}
	v.series(strings.Join(values, "\x00")).Add(d)
}

// Get returns one series' count; a series never recorded reads zero.
func (v *CounterVec) Get(values ...string) uint64 {
	if c := v.lookup(strings.Join(values, "\x00")); c != nil {
		return c.Value()
	}
	return 0
}

func (v *CounterVec) write(w io.Writer, name string) {
	keys, series := v.sorted()
	for i, k := range keys {
		parts := strings.Split(k, "\x00")
		pairs := make([]string, len(parts))
		for j, p := range parts {
			pairs[j] = fmt.Sprintf("%s=%q", v.labels[j], p)
		}
		fmt.Fprintf(w, "%s{%s} %d\n", name, strings.Join(pairs, ","), series[i].Value())
	}
}

// GaugeVec fans a gauge out over the values of a single label.
type GaugeVec struct {
	label string
	vec[Gauge]
}

// GaugeVec registers a gauge family over one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{label: label}
	r.Func(name, help, "gauge", v.write)
	return v
}

// Set sets the series of one label value.
func (v *GaugeVec) Set(value string, n int64) { v.series(value).Set(n) }

func (v *GaugeVec) write(w io.Writer, name string) {
	keys, series := v.sorted()
	for i, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, k, series[i].Value())
	}
}

// Histogram is a cumulative histogram with fixed upper bounds.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // per bucket, not cumulative; counts[len(bounds)] is +Inf
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Histogram registers a histogram with the given ascending bucket bounds.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	h := newHistogram(bounds)
	r.Func(name, help, "histogram", func(w io.Writer, name string) { h.write(w, name, "") })
	return h
}

// Observe records one value into the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Buckets returns the bounds and a copy of the per-bucket (not cumulative)
// counts; the last count is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bounds, append([]uint64(nil), h.counts...)
}

// write emits the buckets, sum and count; label ('phase="forward"') is
// prepended to every series' label set when non-empty.
func (h *Histogram) write(w io.Writer, name, label string) {
	sep := ""
	if label != "" {
		sep = ","
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, label, sep, FormatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, cum)
	if label != "" {
		label = "{" + label + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, label, FormatFloat(h.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, label, h.count)
}

// HistogramVec fans a histogram out over the values of a single label
// (e.g. {phase}); every series shares one bound list.
type HistogramVec struct {
	label string
	vec[Histogram]
}

// HistogramVec registers a histogram family over one label.
func (r *Registry) HistogramVec(name, help, label string, bounds ...float64) *HistogramVec {
	v := &HistogramVec{label: label}
	v.create = func() *Histogram { return newHistogram(bounds) }
	r.Func(name, help, "histogram", v.write)
	return v
}

// Observe records x into the series of one label value.
func (v *HistogramVec) Observe(value string, x float64) { v.series(value).Observe(x) }

func (v *HistogramVec) write(w io.Writer, name string) {
	keys, series := v.sorted()
	for i, k := range keys {
		series[i].write(w, name, fmt.Sprintf("%s=%q", v.label, k))
	}
}
