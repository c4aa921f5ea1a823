package obs

import (
	"sort"
	"sync"
	"time"
)

// Per-endpoint retention tiers. The numbers are deliberately small: the
// recorder's job is to keep the *interesting* traces — the tail and the
// failures — not to archive the flood of fast, healthy requests.
const (
	// tailReservoirSize is the always-keep reservoir of an endpoint's
	// slowest requests. A trace admitted here is only displaced by a slower
	// one, so under any load the worst requests survive.
	tailReservoirSize = 16
	// errorRingSize bounds the per-endpoint ring of recent 5xx traces.
	// Every 5xx is admitted; only older 5xx traces are displaced.
	errorRingSize = 16
	// sampleRingSize is the FIFO ring holding the probabilistic sample of
	// normal (fast, non-error) requests per endpoint.
	sampleRingSize = 32
	// sampleMask keeps ~1/8 of normal requests in the sample ring.
	sampleMask = 7
)

// heldTrace is one retained trace plus the admission metadata Snapshot and
// the tail policy need.
type heldTrace struct {
	t   *Trace
	seq uint64 // global admission order (newest-first listing)
	dur int64  // duration in nanoseconds
}

// endpointGroup is one endpoint's two-tier retention state.
type endpointGroup struct {
	sample     []*heldTrace // FIFO ring of sampled normal requests
	sampleNext int
	slow       []*heldTrace // slowest-N reservoir, unordered
	errs       []*heldTrace // FIFO ring of 5xx traces
	errsNext   int
	rng        uint64 // xorshift64 state for the admission sample
}

// Recorder retains completed traces with a tail-biased, per-endpoint policy:
// every 5xx, the slowest N per endpoint, and a small probabilistic sample of
// normal requests — so a slow trace survives any number of fast requests
// instead of being flooded out of a shared FIFO. Internal operations (such
// as persistence flushes) are recorded the same way under their own
// endpoint names. A nil *Recorder is valid and drops everything.
type Recorder struct {
	mu sync.Mutex

	groups map[string]*endpointGroup
	ids    map[string]int // held-trace ID refcounts (duplicate IDs allowed)
	seq    uint64
	added  uint64 // traces ever offered (held + dropped + evicted)
	held   int    // traces currently retained across all tiers
}

// NewRecorder returns an empty recorder. Its per-endpoint tiers are
// fixed-size, so what it holds is bounded by the number of endpoints.
func NewRecorder() *Recorder {
	return &Recorder{
		groups: make(map[string]*endpointGroup),
		ids:    make(map[string]int),
	}
}

func (r *Recorder) holdLocked(t *Trace, dur int64) *heldTrace {
	r.seq++
	r.held++
	r.ids[t.id]++
	return &heldTrace{t: t, seq: r.seq, dur: dur}
}

func (r *Recorder) dropLocked(h *heldTrace) {
	if h == nil {
		return
	}
	r.held--
	if n := r.ids[h.t.id] - 1; n > 0 {
		r.ids[h.t.id] = n
	} else {
		delete(r.ids, h.t.id)
	}
}

// RecordRequest offers a completed request trace under the two-tier policy
// and reports whether the trace was retained: 5xx traces always are (bounded
// by a per-endpoint ring), then the slowest-N reservoir, then a ~1/8
// probabilistic sample of everything else.
func (r *Recorder) RecordRequest(t *Trace, endpoint string, d time.Duration, status int) bool {
	if r == nil || t == nil {
		return false
	}
	dur := d.Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.added++
	g := r.groups[endpoint]
	if g == nil {
		// Seed the sampler from the endpoint name so admission is
		// deterministic per endpoint (stable tests, reproducible runs).
		var seed uint64 = 0xcbf29ce484222325
		for i := 0; i < len(endpoint); i++ {
			seed = (seed ^ uint64(endpoint[i])) * 0x100000001b3
		}
		g = &endpointGroup{rng: seed | 1}
		r.groups[endpoint] = g
	}

	if status >= 500 {
		if len(g.errs) < errorRingSize {
			g.errs = append(g.errs, r.holdLocked(t, dur))
			return true
		}
		r.dropLocked(g.errs[g.errsNext])
		g.errs[g.errsNext] = r.holdLocked(t, dur)
		g.errsNext = (g.errsNext + 1) % errorRingSize
		return true
	}

	// Slowest-N reservoir: admit while not full, then displace the current
	// fastest member only for a strictly slower request.
	if len(g.slow) < tailReservoirSize {
		g.slow = append(g.slow, r.holdLocked(t, dur))
		return true
	}
	min := 0
	for i := 1; i < len(g.slow); i++ {
		if g.slow[i].dur < g.slow[min].dur {
			min = i
		}
	}
	if dur > g.slow[min].dur {
		r.dropLocked(g.slow[min])
		g.slow[min] = r.holdLocked(t, dur)
		return true
	}

	// Probabilistic sample of normal traffic (xorshift64).
	g.rng ^= g.rng << 13
	g.rng ^= g.rng >> 7
	g.rng ^= g.rng << 17
	if g.rng&sampleMask != 0 {
		return false
	}
	if len(g.sample) < sampleRingSize {
		g.sample = append(g.sample, r.holdLocked(t, dur))
		return true
	}
	r.dropLocked(g.sample[g.sampleNext])
	g.sample[g.sampleNext] = r.holdLocked(t, dur)
	g.sampleNext = (g.sampleNext + 1) % sampleRingSize
	return true
}

// allLocked collects every held trace, unsorted.
func (r *Recorder) allLocked() []*heldTrace {
	out := make([]*heldTrace, 0, r.held)
	for _, g := range r.groups {
		out = append(out, g.sample...)
		out = append(out, g.slow...)
		out = append(out, g.errs...)
	}
	return out
}

// Snapshot returns up to limit traces, newest first by admission order (all
// held traces when limit <= 0).
func (r *Recorder) Snapshot(limit int) []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	all := r.allLocked()
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	if limit > 0 && limit < len(all) {
		all = all[:limit]
	}
	if len(all) == 0 {
		return nil
	}
	out := make([]*Trace, len(all))
	for i, h := range all {
		out[i] = h.t
	}
	return out
}

// Find returns the most recently admitted held trace with the given ID, or
// nil.
func (r *Recorder) Find(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ids[id] == 0 {
		return nil
	}
	var best *heldTrace
	for _, h := range r.allLocked() {
		if h.t.id == id && (best == nil || h.seq > best.seq) {
			best = h
		}
	}
	if best == nil {
		return nil
	}
	return best.t
}

// Held reports whether a trace with the given ID is currently retained. It
// is the exemplar renderer's O(1) check that a bucket's linked request ID
// still resolves at /debug/traces.
func (r *Recorder) Held(id string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ids[id] > 0
}

// Len returns how many traces the recorder currently holds across all tiers.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held
}

// Added returns how many traces have ever been offered (held, sampled away
// or evicted).
func (r *Recorder) Added() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.added
}
