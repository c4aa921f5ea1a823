package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// This file implements push-based event fan-out for streaming sessions —
// the subscriber-facing half of the hardware loop (readers push readings in
// through cmd/rfidedge, clients get distribution deltas pushed back out).
// Every session owns a broadcast hub; GET /v1/stream/{id}/events attaches a
// subscriber and serves the hub's events as Server-Sent Events:
//
//	id: 7
//	event: delta
//	data: {"id":"s1","time":6,"readings":7,"accepted":1,"frontier":3,
//	       "current":[{"location":"lab","p":0.91}, ...]}
//
// One delta event is published per accepted readings batch (carrying the
// session's progress and its top-k filtered distribution), one smooth event
// per completed smooth (carrying the stored trajectory handle), and a single
// terminal close event when the session goes away — client close, idle
// reaping, cap eviction, or server shutdown; the reason says which.
//
// The contract that keeps the Observe hot path fast: publishing never
// blocks. Each subscriber has a bounded buffer (a channel); an event that
// finds the buffer full evicts that subscriber on the spot — the hub closes
// its channel, the handler goroutine notices and ends the response, and the
// client is expected to reconnect with a Last-Event-ID header. The hub keeps
// a bounded ring of recent events so a reconnecting subscriber replays what
// it missed; if the gap outran the ring, a comment warns that the resume is
// partial and the client should re-read GET /v1/stream/{id} for a full
// snapshot. Heartbeat comments flow on an idle stream so proxies keep the
// connection alive and dead peers are detected by write deadlines; each
// successfully-written heartbeat also counts as session activity, so a
// session with a live subscriber is not reaped under it.

// sseWriteTimeout bounds every write to a subscriber's connection; a peer
// that stops draining its socket is disconnected rather than pinning the
// handler goroutine forever.
const sseWriteTimeout = 10 * time.Second

// Event kinds, as they appear on the SSE "event:" line and the
// rfidclean_stream_events_total metric.
const (
	eventKindDelta  = "delta"
	eventKindSmooth = "smooth"
	eventKindClose  = "close"
)

// Close reasons carried by the terminal close event.
const (
	closeReasonClosed   = "closed"   // client DELETE
	closeReasonReaped   = "reaped"   // idle past the session TTL
	closeReasonEvicted  = "evicted"  // displaced at the session cap
	closeReasonShutdown = "shutdown" // server closing
)

// streamEvent is one fan-out message: a session-scoped monotonic id (the SSE
// event id, which Last-Event-ID resume is keyed on), a kind, and the encoded
// JSON payload.
type streamEvent struct {
	id   uint64
	kind string
	data []byte
}

// subscriber is one attached event consumer. The hub owns ch: only the hub
// closes it (on eviction or hub shutdown), and only after removing the
// subscriber from its set, so a close can never race a send.
type subscriber struct {
	ch chan streamEvent
	// evicted is set (under hub.mu, before ch closes) when the subscriber
	// was dropped for falling behind; the handler reads it after ch closes
	// to tell eviction apart from session close.
	evicted bool
}

// sessionHub is one session's broadcast hub. Publishing is non-blocking by
// construction — the only lock is hub.mu, which no publisher holds across
// anything slower than a failed channel send — so a stalled subscriber can
// never back-pressure the Observe hot path.
type sessionHub struct {
	sessionID string
	buffer    int // per-subscriber channel capacity
	history   int // resume ring capacity
	m         *serverMetrics

	mu     sync.Mutex
	nextID uint64
	ring   []streamEvent // recent events; ring[(head+i) % len] is i-th oldest
	head   int
	subs   map[*subscriber]struct{}
	closed bool
}

func newSessionHub(sessionID string, buffer, history int, m *serverMetrics) *sessionHub {
	return &sessionHub{
		sessionID: sessionID,
		buffer:    buffer,
		history:   history,
		m:         m,
		subs:      make(map[*subscriber]struct{}),
	}
}

// subscribe attaches a consumer and returns the events it should replay
// first (those after lastID still held in the ring, when hasLast). gap
// reports that the ring no longer reaches back to lastID+1, so the replay is
// partial. A nil subscriber means the hub is closed.
func (h *sessionHub) subscribe(lastID uint64, hasLast bool) (sub *subscriber, replay []streamEvent, gap bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, false
	}
	sub = &subscriber{ch: make(chan streamEvent, h.buffer)}
	h.subs[sub] = struct{}{}
	h.m.streamSubscribers.Add(1)
	if hasLast {
		n := len(h.ring)
		for i := 0; i < n; i++ {
			ev := h.ring[(h.head+i)%n]
			if ev.id > lastID {
				replay = append(replay, ev)
			}
		}
		// The resume has a hole when events past the client's cursor exist
		// but the ring no longer reaches back to lastID+1.
		if len(replay) > 0 {
			gap = replay[0].id != lastID+1
		} else {
			gap = h.nextID > lastID
		}
	}
	return sub, replay, gap
}

// unsubscribe detaches a consumer when its handler exits. It is a no-op for
// subscribers the hub already removed (eviction, shutdown), so the
// subscriber gauge moves exactly once per attachment.
func (h *sessionHub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		h.m.streamSubscribers.Add(-1)
	}
	h.mu.Unlock()
}

// subscribers returns the current attachment count (tests, load checks).
func (h *sessionHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// publish broadcasts one event: assign the next id, remember it in the
// resume ring, and offer it to every subscriber without ever blocking — a
// full buffer evicts its subscriber instead of stalling the publisher.
func (h *sessionHub) publish(kind string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		// Payloads are our own structs; this is unreachable short of a bug.
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.nextID++
	ev := streamEvent{id: h.nextID, kind: kind, data: data}
	h.remember(ev)
	start := time.Now()
	h.offerLocked(ev)
	elapsed := time.Since(start)
	h.mu.Unlock()
	h.m.streamEvents.Inc(kind)
	h.m.fanoutSeconds.Observe(elapsed.Seconds())
}

// remember appends an event to the bounded resume ring; the caller holds
// h.mu.
func (h *sessionHub) remember(ev streamEvent) {
	if len(h.ring) < h.history {
		h.ring = append(h.ring, ev)
		return
	}
	h.ring[h.head] = ev
	h.head = (h.head + 1) % h.history
}

// offerLocked enqueues ev to every subscriber, evicting any whose buffer is
// full; the caller holds h.mu.
func (h *sessionHub) offerLocked(ev streamEvent) {
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			delete(h.subs, sub)
			sub.evicted = true
			close(sub.ch)
			h.m.streamSubscribers.Add(-1)
			h.m.streamEventsDropped.Inc()
			h.m.streamSubsEvicted.Inc()
		}
	}
}

// StreamCloseEvent is the terminal close event's payload.
type StreamCloseEvent struct {
	ID string `json:"id"`
	// Reason is why the session went away: closed (client DELETE), reaped
	// (idle TTL), evicted (session cap), or shutdown (server closing).
	Reason string `json:"reason"`
}

// shutdown publishes the terminal close event and then closes every
// subscriber channel, ending their handlers once the buffered tail drains.
// It is idempotent; subsequent publishes and subscribes are refused.
func (h *sessionHub) shutdown(reason string) {
	data, _ := json.Marshal(StreamCloseEvent{ID: h.sessionID, Reason: reason})
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.nextID++
	ev := streamEvent{id: h.nextID, kind: eventKindClose, data: data}
	h.remember(ev)
	h.offerLocked(ev)
	n := len(h.subs)
	for sub := range h.subs {
		delete(h.subs, sub)
		close(sub.ch)
	}
	h.mu.Unlock()
	h.m.streamSubscribers.Add(int64(-n))
	h.m.streamEvents.Inc(eventKindClose)
}

// StreamDeltaEvent is the payload published after each accepted readings
// batch: the session's progress plus its current top-k filtered
// distribution.
type StreamDeltaEvent struct {
	ID       string `json:"id"`
	Time     int    `json:"time"`
	Readings int    `json:"readings"`
	// Accepted is how many readings this batch contributed.
	Accepted int  `json:"accepted"`
	Frontier int  `json:"frontier"`
	Dead     bool `json:"dead,omitempty"`
	// Current is the top-k filtered distribution after the batch.
	Current []LocationProb `json:"current,omitempty"`
}

// StreamSmoothEvent is the payload published when a smooth completes.
type StreamSmoothEvent struct {
	ID         string        `json:"id"`
	Trajectory CleanResponse `json:"trajectory"`
	// Mode is always "incremental": every smooth conditions the session's
	// live build state. The value is kept for wire compatibility.
	Mode string `json:"mode"`
}

// deltaTopK caps the distribution entries carried by a delta event; a
// subscriber that wants the full support polls GET /v1/stream/{id}.
const deltaTopK = 5

// deltaLocked builds the delta payload for the batch just accepted; the
// caller holds sess.mu.
func deltaLocked(sess *streamSession, accepted int) StreamDeltaEvent {
	ev := StreamDeltaEvent{
		ID:       sess.id,
		Time:     sess.state.Time(),
		Readings: sess.state.Duration(),
		Accepted: accepted,
		Frontier: sess.state.FrontierSize(),
		Dead:     sess.dead,
	}
	if dist, err := sess.state.TopLocations(deltaTopK); err == nil {
		ev.Current = locationProbs(sess, dist)
	}
	return ev
}

// DrainSubscribers closes every attached event subscriber with a shutdown
// close event, without closing the sessions themselves. Register it with
// http.Server.RegisterOnShutdown so a graceful drain is not held open for
// the full timeout by subscribers that would otherwise never finish their
// response.
func (s *Server) DrainSubscribers() {
	s.sessions.drainSubscribers()
}

func (st *sessionStore) drainSubscribers() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sess := range st.sessions {
		sess.hub.shutdown(closeReasonShutdown)
	}
}

// handleStreamEvents serves GET /v1/stream/{id}/events: an SSE stream of the
// session's delta/smooth/close events. A Last-Event-ID header (as sent by
// EventSource reconnects) resumes from the hub's ring; Last-Event-ID: 0
// replays everything the ring still holds.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request, sess *streamSession) {
	var lastID uint64
	hasLast := false
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid Last-Event-ID %q", v)
			return
		}
		lastID, hasLast = n, true
	}
	sub, replay, gap := sess.hub.subscribe(lastID, hasLast)
	if sub == nil {
		// The session was looked up alive but its hub closed in between:
		// it is gone, not unknown.
		writeError(w, http.StatusGone, "stream session %q is closed; open a new session and re-send", sess.id)
		return
	}
	defer sess.hub.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	sse := sseInfoFrom(r.Context())
	write := func(p []byte) bool {
		// A deadline error just means the writer can't enforce one (test
		// recorders); the write itself still decides the stream's fate.
		if err := rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return false
		}
		if _, err := w.Write(p); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	// writeEvent is the counted path: comments and heartbeats go through
	// write() directly and are not billed as delivered events.
	writeEvent := func(ev streamEvent) bool {
		p := formatEvent(ev)
		if !write(p) {
			return false
		}
		sse.noteEvent(len(p))
		return true
	}
	if !write([]byte(fmt.Sprintf(": connected session=%s replay=%d\n\n", sess.id, len(replay)))) {
		return
	}
	if gap {
		if !write([]byte(": resume gap — events before the replayed window were dropped; GET /v1/stream/" + sess.id + " for a full snapshot\n\n")) {
			return
		}
	}
	for _, ev := range replay {
		if !writeEvent(ev) {
			return
		}
	}

	ticker := time.NewTicker(s.sseHeartbeat)
	defer ticker.Stop()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				if sub.evicted {
					// Best effort: the peer is slow, but the socket may
					// still take a short diagnostic before we hang up.
					write([]byte(": dropped — subscriber fell behind its event buffer; reconnect with Last-Event-ID to resume\n\n"))
				}
				return
			}
			if !writeEvent(ev) {
				return
			}
		case <-ticker.C:
			if !write([]byte(": hb\n\n")) {
				return
			}
			// A live subscriber counts as session activity: don't reap a
			// session someone is actively watching.
			sess.touch()
		case <-r.Context().Done():
			return
		}
	}
}

// formatEvent renders one event in the SSE wire format.
func formatEvent(ev streamEvent) []byte {
	buf := make([]byte, 0, len(ev.data)+len(ev.kind)+32)
	buf = append(buf, "id: "...)
	buf = strconv.AppendUint(buf, ev.id, 10)
	buf = append(buf, "\nevent: "...)
	buf = append(buf, ev.kind...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, ev.data...)
	buf = append(buf, "\n\n"...)
	return buf
}
