// Package flight implements a runtime flight recorder: a background sampler
// that snapshots cheap process health signals (goroutines, heap, GC pause
// totals, a scheduler-lag probe, plus caller-supplied gauges) into a fixed
// ring. The ring is always on and always bounded, so when something goes
// wrong — an eviction storm, a persistence error, an operator's SIGQUIT —
// the last few minutes of runtime behaviour are already captured and can be
// dumped or served as JSON.
package flight

import (
	"runtime"
	"sync"
	"time"
)

const (
	// DefaultInterval is the sampling cadence New uses for a non-positive
	// interval.
	DefaultInterval = time.Second
	maxEvents       = 64 // bounded ring of dump-triggering events
)

// Sample is one flight-recorder tick.
type Sample struct {
	UnixNanos         int64  `json:"unixNanos"`
	Goroutines        int    `json:"goroutines"`
	HeapAllocBytes    uint64 `json:"heapAllocBytes"`
	HeapObjects       uint64 `json:"heapObjects"`
	GCPauseTotalNanos uint64 `json:"gcPauseTotalNanos"`
	GCRuns            uint32 `json:"gcRuns"`
	// SchedLagNanos is the overshoot of a 1ms sleep: how much later than
	// asked the runtime woke the sampler, a direct probe of scheduler and
	// timer pressure.
	SchedLagNanos int64 `json:"schedLagNanos"`
	// Gauges carries application state (store bytes, open sessions, SSE
	// subscribers, ...) supplied by the owner's callback.
	Gauges map[string]int64 `json:"gauges,omitempty"`
}

// Event is a noted SLO-relevant occurrence (what triggered a dump and when).
type Event struct {
	UnixNanos int64  `json:"unixNanos"`
	Reason    string `json:"reason"`
	Detail    string `json:"detail,omitempty"`
}

// Snapshot is the serializable state of the recorder: the sampled window
// oldest-first plus the noted events.
type Snapshot struct {
	IntervalMillis int64    `json:"intervalMillis"`
	Samples        []Sample `json:"samples"`
	Events         []Event  `json:"events,omitempty"`
}

// Recorder runs the sampler. A nil *Recorder is valid and does nothing, so
// callers can wire it unconditionally and disable it with a flag.
type Recorder struct {
	interval time.Duration
	gauges   func() map[string]int64

	mu        sync.Mutex
	ring      []Sample
	next      int
	count     int
	events    []Event
	eventNext int
	eventLen  int

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a recorder sampling every interval into a ring of size (>= 1)
// slots.
// gauges, when non-nil, is called once per tick to attach application state;
// it must be safe for concurrent use and cheap.
func New(interval time.Duration, size int, gauges func() map[string]int64) *Recorder {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Recorder{
		interval: interval,
		gauges:   gauges,
		ring:     make([]Sample, size),
		events:   make([]Event, maxEvents),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the background sampler (idempotent).
func (r *Recorder) Start() {
	if r == nil {
		return
	}
	r.startOnce.Do(func() { go r.loop() })
}

// Close stops the sampler and waits for it to exit (idempotent; safe even if
// Start was never called).
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) }) // never started: unblock the wait
	<-r.done
}

func (r *Recorder) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	r.Sample() // one sample immediately so a fresh recorder is never empty
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Sample()
		}
	}
}

// Sample takes one tick now. Exposed so owners can force a final sample into
// the window right before dumping.
func (r *Recorder) Sample() {
	if r == nil {
		return
	}
	// The scheduler-lag probe: ask for 1ms, measure what we got. Under a
	// healthy scheduler the overshoot is tens of microseconds; under CPU
	// starvation or timer pressure it stretches to milliseconds.
	probeStart := time.Now()
	time.Sleep(time.Millisecond)
	lag := time.Since(probeStart) - time.Millisecond
	if lag < 0 {
		lag = 0
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := Sample{
		UnixNanos:         time.Now().UnixNano(),
		Goroutines:        runtime.NumGoroutine(),
		HeapAllocBytes:    ms.HeapAlloc,
		HeapObjects:       ms.HeapObjects,
		GCPauseTotalNanos: ms.PauseTotalNs,
		GCRuns:            ms.NumGC,
		SchedLagNanos:     lag.Nanoseconds(),
	}
	if r.gauges != nil {
		s.Gauges = r.gauges()
	}

	r.mu.Lock()
	r.ring[r.next] = s
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	r.mu.Unlock()
}

// Note records an SLO-relevant event into the bounded event ring.
func (r *Recorder) Note(reason, detail string) {
	if r == nil {
		return
	}
	e := Event{UnixNanos: time.Now().UnixNano(), Reason: reason, Detail: detail}
	r.mu.Lock()
	r.events[r.eventNext] = e
	r.eventNext = (r.eventNext + 1) % len(r.events)
	if r.eventLen < len(r.events) {
		r.eventLen++
	}
	r.mu.Unlock()
}

// Snapshot returns the current window, samples oldest-first.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		IntervalMillis: r.interval.Milliseconds(),
		Samples:        make([]Sample, 0, r.count),
	}
	for i := 0; i < r.count; i++ {
		snap.Samples = append(snap.Samples, r.ring[(r.next-r.count+i+len(r.ring))%len(r.ring)])
	}
	for i := 0; i < r.eventLen; i++ {
		snap.Events = append(snap.Events, r.events[(r.eventNext-r.eventLen+i+len(r.events))%len(r.events)])
	}
	return snap
}
