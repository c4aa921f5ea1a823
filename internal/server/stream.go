package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rfidclean "repro"
	"repro/internal/obs"
)

// This file implements streaming ingestion sessions — the live-tracking
// counterpart of the batch /v1/clean endpoints. A session pins a deployment
// and a constraint set and feeds timestamped reader sets, as they arrive,
// through the deployment prior into a per-session build state
// (core.BuildState), which keeps Algorithm 1's forward pass alive across
// readings. At any point the client can read the *filtered* distribution of
// the object's current location (conditioned on the past only — the best an
// online cleaner can do); on demand, or when the session closes, smoothing
// runs the backward/revise phase over the state's levels and yields a
// ct-graph bit-identical to a full offline rebuild,
// stored in the trajectory store where the usual query endpoints apply.
//
//	POST   /v1/stream                     StreamOpenRequest -> {"id": ...}
//	POST   /v1/stream/{id}/readings      append readings -> StreamStatus
//	GET    /v1/stream/{id}[?top=k]       current filtered distribution
//	GET    /v1/stream/{id}/events        SSE event subscription (hub.go)
//	POST   /v1/stream/{id}/smooth        smooth the accepted readings -> CleanResponse
//	DELETE /v1/stream/{id}[?smooth=no]   close (smoothing by default)
//
// The readings POST and the status GET also speak a compact binary codec
// (see codec.go), negotiated per request via Content-Type / Accept:
// application/x-rfidclean.
//
// Sessions are bounded two ways: a per-session reading budget caps the build
// state's levels, and a server-wide session cap evicts the
// least-recently-active session when full. Idle sessions are reaped by a
// background goroutine after a TTL; the reaper is wired into Server.Close so
// a graceful shutdown drains it deterministically.

// streamSession is one live-tracking session. Its mutex serializes state
// advancement; lastActive is atomic so the reaper can scan sessions without
// contending with a slow Observe.
type streamSession struct {
	id  string
	dep *deployment

	// hub fans the session's delta/smooth/close events out to SSE
	// subscribers (hub.go). It is created with the session and closed by
	// whichever path removes the session.
	hub *sessionHub

	mu sync.Mutex
	// state is the streaming build under the constraint set the session
	// resolved at open, which it pins for its lifetime: one forward level per
	// accepted reading, so its Duration is the accepted-reading count (a
	// dead end appends no level), every live query reads its frontier, and
	// every smooth conditions it. Whichever path removes the
	// session releases it and sets it nil (releaseLocked); a handler that
	// locks the session afterwards answers 410 like a removed session.
	state *rfidclean.BuildState
	dead  bool // constraints ruled out every continuation

	lastActive atomic.Int64 // unix nanoseconds
}

func (ss *streamSession) touch() { ss.lastActive.Store(time.Now().UnixNano()) }

// releaseLocked gives the removed session's build state back to the kernel
// pool; the caller holds ss.mu.
func (ss *streamSession) releaseLocked() {
	if ss.state != nil {
		ss.state.Release()
		ss.state = nil
	}
}

// release is releaseLocked under ss.mu, for the paths that remove a session
// without holding it.
func (ss *streamSession) release() {
	ss.mu.Lock()
	ss.releaseLocked()
	ss.mu.Unlock()
}

// writeGone answers a request for a session that was removed: 410, re-open
// and re-send.
func writeGone(w http.ResponseWriter, id string) {
	writeError(w, http.StatusGone, "stream session %q is closed; open a new session and re-send", id)
}

// sessionTombstones caps how many closed-session ids the store remembers so
// late requests can be answered with 410 Gone instead of 404. The ring is
// bounded: at capacity the oldest tombstone falls back to 404, which is the
// honest answer for an id nobody has mentioned in thousands of closures.
const sessionTombstones = 4096

// sessionStore owns the open sessions, the id counter, and the idle reaper.
// Ids of sessions that existed but were closed (client close, idle reaping,
// cap eviction, server shutdown) are kept in a bounded tombstone ring so a
// client racing its own reaper gets 410 Gone — "re-open and re-send" — rather
// than the 404 it would get for an id that never existed.
type sessionStore struct {
	maxSessions int           // open-session cap (maxSessions)
	ttl         time.Duration // idle lifetime (sessionTTL)
	maxReadings int           // per-session build-state levels (maxSessionReadings)
	history     int           // per-session resume ring (eventHistory, hub.go)
	stride      int           // id-allocation stride (shard count; <= 1: single-node)
	offset      int           // this shard's residue class
	m           *serverMetrics
	onEvict     func(n int) // flight-recorder storm detector; nil when disabled

	mu       sync.Mutex
	sessions map[string]*streamSession
	next     int
	gone     map[string]bool // tombstoned session ids
	goneRing []string        // circular id buffer backing gone
	goneHead int
	reaping  bool          // reaper goroutine started
	stop     chan struct{} // closed by close()
	done     chan struct{} // closed when the reaper goroutine exits
	closed   bool
}

func newSessionStore(stride, offset int, m *serverMetrics) *sessionStore {
	return &sessionStore{
		maxSessions: maxSessions,
		ttl:         sessionTTL,
		maxReadings: maxSessionReadings,
		history:     eventHistory,
		stride:      stride,
		offset:      offset,
		m:           m,
		sessions:    make(map[string]*streamSession),
		gone:        make(map[string]bool),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// markGoneLocked tombstones a closed session id; the caller holds st.mu.
func (st *sessionStore) markGoneLocked(id string) {
	if st.gone[id] {
		return
	}
	if len(st.goneRing) < sessionTombstones {
		st.goneRing = append(st.goneRing, id)
	} else {
		delete(st.gone, st.goneRing[st.goneHead])
		st.goneRing[st.goneHead] = id
		st.goneHead = (st.goneHead + 1) % sessionTombstones
	}
	st.gone[id] = true
}

// isGone reports whether the id names a session that existed and was closed.
func (st *sessionStore) isGone(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gone[id]
}

// open creates a session. At capacity the least-recently-active session is
// evicted to make room — live tracking favors fresh streams over stale ones,
// and an evicted client can always re-open and re-send. Returns nil when the
// store has been closed.
func (st *sessionStore) open(dep *deployment, state *rfidclean.BuildState) *streamSession {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	var victim *streamSession
	if len(st.sessions) >= st.maxSessions {
		victim = st.evictOldestLocked()
	}
	st.next = nextStridedID(st.next, st.stride, st.offset)
	s := &streamSession{
		id:    "s" + strconv.Itoa(st.next),
		dep:   dep,
		state: state,
	}
	s.hub = newSessionHub(s.id, subscriberBuffer, st.history, st.m)
	s.touch()
	st.sessions[s.id] = s
	st.m.streamSessions.Set(int64(len(st.sessions)))
	if !st.reaping {
		st.reaping = true
		go st.reapLoop()
	}
	st.mu.Unlock()
	if victim != nil {
		// Outside st.mu: the victim may be mid-request.
		victim.release()
	}
	return s
}

// evictOldestLocked removes the session with the stalest activity stamp.
// Equal stamps — common when sessions are opened in a burst within the
// clock's resolution — are broken by numeric session id, oldest id first, so
// the victim is deterministic rather than whatever the map iterator happens
// to visit first. It maintains the open-session gauge itself so any future
// caller beyond open leaves it consistent. It returns the victim, whose
// state the caller releases once it has let go of st.mu.
func (st *sessionStore) evictOldestLocked() *streamSession {
	var victim *streamSession
	oldest := int64(1<<63 - 1)
	victimNum := 0
	for id, s := range st.sessions {
		a := s.lastActive.Load()
		n, _ := idNum("s", id)
		if a < oldest || (a == oldest && victim != nil && n < victimNum) {
			oldest, victim, victimNum = a, s, n
		}
	}
	if victim == nil {
		return nil
	}
	delete(st.sessions, victim.id)
	st.markGoneLocked(victim.id)
	st.m.streamSessions.Set(int64(len(st.sessions)))
	st.m.streamEvicted.Inc()
	if st.onEvict != nil {
		st.onEvict(1)
	}
	victim.hub.shutdown(closeReasonEvicted)
	return victim
}

// get returns the session with the given id, or nil.
func (st *sessionStore) get(id string) *streamSession {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sessions[id]
}

// remove deletes a session, reporting whether it existed.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	_, ok := st.sessions[id]
	if ok {
		delete(st.sessions, id)
		st.markGoneLocked(id)
		st.m.streamSessions.Set(int64(len(st.sessions)))
	}
	st.mu.Unlock()
	return ok
}

// count returns the number of open sessions.
func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// reapLoop periodically drops sessions idle past the TTL. It exits when the
// store closes; the tick is a quarter of the TTL, capped at a minute, so a
// session outlives its TTL by at most that tick.
func (st *sessionStore) reapLoop() {
	defer close(st.done)
	ticker := time.NewTicker(min(st.ttl/4, time.Minute))
	defer ticker.Stop()
	for {
		select {
		case <-st.stop:
			return
		case now := <-ticker.C:
			st.reap(now)
		}
	}
}

// reap removes sessions whose last activity is older than the TTL,
// returning how many it dropped.
func (st *sessionStore) reap(now time.Time) int {
	cutoff := now.Add(-st.ttl).UnixNano()
	st.mu.Lock()
	var victims []*streamSession
	for id, s := range st.sessions {
		if s.lastActive.Load() < cutoff {
			delete(st.sessions, id)
			st.markGoneLocked(id)
			victims = append(victims, s)
		}
	}
	if len(victims) > 0 {
		st.m.streamSessions.Set(int64(len(st.sessions)))
	}
	st.mu.Unlock()
	for _, s := range victims {
		s.hub.shutdown(closeReasonReaped)
		s.release()
		st.m.streamReaped.Inc()
	}
	return len(victims)
}

// close stops the reaper (waiting for it to exit) and drops every session.
// It is idempotent: only the first call closes the stop channel (a second
// close would panic), and every call — not just the first — waits until the
// reaper goroutine has actually exited, so any caller returning from close
// may rely on the reaper being gone.
func (st *sessionStore) close() {
	st.mu.Lock()
	first := !st.closed
	st.closed = true
	reaping := st.reaping
	var removed []*streamSession
	if first {
		for id, s := range st.sessions {
			st.markGoneLocked(id)
			s.hub.shutdown(closeReasonShutdown)
			removed = append(removed, s)
		}
		st.sessions = make(map[string]*streamSession)
		st.m.streamSessions.Set(0)
	}
	st.mu.Unlock()
	for _, s := range removed {
		s.release()
	}
	if first {
		close(st.stop)
	}
	if reaping {
		<-st.done
	}
}

// StreamOpenRequest opens a streaming session against a registered
// deployment. MaxSpeed/MinStay/TTCap select the constraint set exactly like
// CleanRequest (and share its per-deployment cache).
type StreamOpenRequest struct {
	// Deployment is the id returned by POST /v1/deployments.
	Deployment string `json:"deployment"`
	// Tag optionally names the monitored object. The server itself ignores
	// it, but a sharding router keys session placement on it so a tag's
	// sessions co-locate with its cleans.
	Tag string `json:"tag,omitempty"`
	// MaxSpeed (m/s) drives TT inference; required, > 0.
	MaxSpeed float64 `json:"maxSpeed"`
	// MinStay (s) drives LT inference on non-corridor locations.
	MinStay int `json:"minStay"`
	// TTCap optionally truncates TT horizons (0 = uncapped).
	TTCap int `json:"ttCap"`
}

// StreamReadingsRequest appends readings to a session, in timestamp order.
type StreamReadingsRequest struct {
	Readings []rfidclean.Reading `json:"readings"`
}

// StreamStatus reports a session's progress and, on GET, its current
// filtered distribution.
type StreamStatus struct {
	ID         string `json:"id"`
	Deployment string `json:"deployment"`
	// Time is the last observed timestamp (-1 before the first reading).
	Time int `json:"time"`
	// Readings is how many readings the session has accepted (the prefix a
	// smooth conditions).
	Readings int `json:"readings"`
	// Frontier is the build state's live node count at the newest
	// timestamp.
	Frontier int `json:"frontier"`
	// Dead reports that the constraints ruled out every continuation; the
	// session only serves its accepted prefix from here on.
	Dead bool `json:"dead,omitempty"`
	// Current is the filtered distribution over locations, descending
	// (GET only; capped by ?top=k).
	Current []LocationProb `json:"current,omitempty"`
}

// handleStreamOpen serves POST /v1/stream.
func (s *Server) handleStreamOpen(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req StreamOpenRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	dep, ic, _ := s.resolve(r.Context(), w, req.Deployment, rfidclean.ConstraintParams{
		MaxSpeed: req.MaxSpeed, MinStay: req.MinStay, TTCap: req.TTCap,
	})
	if dep == nil {
		return
	}
	state := rfidclean.NewBuildState(ic)
	sess := s.sessions.open(dep, state)
	if sess == nil {
		state.Release()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if dep.dead.Load() {
		// The deployment was deleted between lookup and open: the session
		// would pin a dead deployment and every smooth would orphan its
		// graphs. Close it as if it were never opened.
		if s.sessions.remove(sess.id) {
			sess.release()
		}
		sess.hub.shutdown(closeReasonClosed)
		writeError(w, http.StatusNotFound, "%v", dep.deletedErr())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": sess.id})
}

// handleStream routes /v1/stream/{id}[/{op}].
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	op := ""
	if len(parts) == 2 {
		op = parts[1]
	}
	sess := s.sessions.get(id)
	if sess == nil {
		if s.sessions.isGone(id) {
			writeGone(w, id)
		} else {
			writeError(w, http.StatusNotFound, "unknown stream session %q", id)
		}
		return
	}
	switch {
	case op == "" && r.Method == http.MethodGet:
		s.handleStreamStatus(w, r, sess)
	case op == "" && r.Method == http.MethodDelete:
		s.handleStreamClose(w, r, sess)
	case op == "readings" && r.Method == http.MethodPost:
		s.handleStreamReadings(w, r, sess)
	case op == "smooth" && r.Method == http.MethodPost:
		s.handleStreamSmooth(w, r, sess)
	case op == "events" && r.Method == http.MethodGet:
		s.handleStreamEvents(w, r, sess)
	case op == "" || op == "readings" || op == "smooth" || op == "events":
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	default:
		writeError(w, http.StatusNotFound, "unknown operation %q", op)
	}
}

// statusLocked renders the session's progress; the caller holds sess.mu.
func statusLocked(sess *streamSession) StreamStatus {
	return StreamStatus{
		ID:         sess.id,
		Deployment: sess.dep.id,
		Time:       sess.state.Time(),
		Readings:   sess.state.Duration(),
		Frontier:   sess.state.FrontierSize(),
		Dead:       sess.dead,
	}
}

// locationProbs names the locations of a frontier distribution.
func locationProbs(sess *streamSession, dist []rfidclean.LocProb) []LocationProb {
	out := make([]LocationProb, len(dist))
	for i, lp := range dist {
		out[i] = LocationProb{Location: sess.dep.sys.Plan.Location(lp.Loc).Name, P: lp.P}
	}
	return out
}

// writeStreamStatus writes a status response in the negotiated codec.
func writeStreamStatus(w http.ResponseWriter, r *http.Request, code int, st StreamStatus) {
	if acceptsBinary(r) {
		buf := EncodeStreamStatus(st)
		w.Header().Set("Content-Type", ContentTypeBinary)
		w.WriteHeader(code)
		w.Write(buf)
		return
	}
	writeJSON(w, code, st)
}

// handleStreamReadings appends readings to the session and advances the
// build state one timestamp per reading. Timestamps must arrive densely and in
// order: reading N is timestamp N. A duplicate or out-of-order timestamp is
// rejected with 409, a gap with 422, and a reading the constraints rule out
// kills the session (422; the accepted prefix remains smoothable). On a
// mid-batch error the already-observed prefix is kept.
func (s *Server) handleStreamReadings(w http.ResponseWriter, r *http.Request, sess *streamSession) {
	var req StreamReadingsRequest
	if requestIsBinary(r) {
		s.limitBody(w, r)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			s.bodyError(w, err)
			return
		}
		if req.Readings, err = DecodeStreamReadings(body); err != nil {
			writeError(w, http.StatusBadRequest, "invalid binary readings: %v", err)
			return
		}
	} else if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Readings) == 0 {
		writeError(w, http.StatusBadRequest, "readings must be non-empty")
		return
	}
	_, sp := obs.Start(r.Context(), "stream.observe")
	defer sp.End()
	sp.Int("readings", int64(len(req.Readings)))
	// Label the whole observe loop once (set/restore, not a per-reading
	// pprof.Do) so profile samples from the state updates carry
	// the endpoint and deployment.
	labeled := pprof.WithLabels(r.Context(), pprof.Labels("endpoint", "stream_readings", "deployment", sess.dep.id))
	pprof.SetGoroutineLabels(labeled)
	defer pprof.SetGoroutineLabels(r.Context())
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == nil {
		writeGone(w, sess.id)
		return
	}
	defer sess.touch()
	if sess.dead {
		s.metrics.streamReadings.Inc("dead_session")
		writeError(w, http.StatusGone, "session %s hit a dead end at timestamp %d and accepts no more readings", sess.id, sess.state.Duration())
		return
	}
	// One delta event per batch that moved the session — readings accepted,
	// or the dead-end transition — even when a later reading in the batch
	// failed; the accepted prefix is real and subscribers should see it.
	// Runs before the deferred unlock, so deltaLocked still holds sess.mu.
	accepted := 0
	defer func() {
		if accepted > 0 || sess.dead {
			sess.hub.publish(eventKindDelta, deltaLocked(sess, accepted))
		}
	}()
	for _, reading := range req.Readings {
		next := sess.state.Duration()
		if reading.Time < next {
			s.metrics.streamReadings.Inc("out_of_order")
			writeError(w, http.StatusConflict, "duplicate or out-of-order timestamp %d (already observed through %d)", reading.Time, next-1)
			return
		}
		if reading.Time > next {
			s.metrics.streamReadings.Inc("gap")
			writeError(w, http.StatusUnprocessableEntity, "timestamp gap: got %d, next expected %d", reading.Time, next)
			return
		}
		if budget := s.sessions.maxReadings; next >= budget {
			s.metrics.streamReadings.Inc("budget")
			writeError(w, http.StatusTooManyRequests, "session reading budget (%d) exhausted; smooth and close, or open a new session", budget)
			return
		}
		cands, err := sess.dep.sys.Candidates(reading.Readers)
		if err != nil {
			s.metrics.streamReadings.Inc("bad_reading")
			writeError(w, http.StatusBadRequest, "timestamp %d: %v", reading.Time, err)
			return
		}
		start := time.Now()
		err = sess.state.Observe(cands)
		s.metrics.observeSeconds.Observe(time.Since(start).Seconds())
		if errors.Is(err, rfidclean.ErrNoValidTrajectory) {
			sess.dead = true
			s.metrics.streamReadings.Inc("dead_end")
			writeError(w, http.StatusUnprocessableEntity, "timestamp %d is inconsistent with the constraints; session is dead (accepted prefix of %d readings remains smoothable)", reading.Time, next)
			return
		}
		if err != nil {
			s.metrics.streamReadings.Inc("bad_reading")
			writeError(w, http.StatusBadRequest, "timestamp %d: %v", reading.Time, err)
			return
		}
		accepted++
		s.metrics.streamReadings.Inc("ok")
	}
	writeStreamStatus(w, r, http.StatusOK, statusLocked(sess))
}

// handleStreamStatus serves the current filtered distribution; ?top=k caps
// the entries to the k most probable current locations.
func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request, sess *streamSession) {
	top := 0
	if q := r.URL.Query().Get("top"); q != "" {
		var err error
		if top, err = strconv.Atoi(q); err != nil || top < 1 {
			writeError(w, http.StatusBadRequest, "invalid ?top=")
			return
		}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == nil {
		writeGone(w, sess.id)
		return
	}
	sess.touch()
	st := statusLocked(sess)
	if st.Time >= 0 {
		var (
			dist []rfidclean.LocProb
			err  error
		)
		if top > 0 {
			dist, err = sess.state.TopLocations(top)
		} else {
			dist, err = sess.state.Distribution()
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		st.Current = locationProbs(sess, dist)
	}
	writeStreamStatus(w, r, http.StatusOK, st)
}

// smoothMode labels every smooth on the rfidclean_stream_smooths_total
// series and in the smooth event: a smooth of the session's live state.
// The value predates the current smooth and is kept for wire compatibility.
const smoothMode = "incremental"

// smoothLocked conditions the accepted readings (LenientEnd, so the final
// timestamp agrees with the filtered answer) and stores the quotient of the
// ct-graph in the trajectory store. It runs the backward/revise phase over
// every level of the session's build state, whose forward pass the readings
// already ran; the result is bit-identical to a full offline clean of those
// readings under the constraint set the session opened with. The caller
// holds sess.mu.
func (s *Server) smoothLocked(ctx context.Context, sess *streamSession) (CleanResponse, int, error) {
	if sess.state.Duration() == 0 {
		return CleanResponse{}, http.StatusUnprocessableEntity,
			errors.New("session has no readings to smooth")
	}
	start := time.Now()
	outcome := "error"
	defer func() { s.metrics.cleanRequests.Inc("stream", outcome) }()
	opts := &rfidclean.BuildOptions{
		EndLatency: rfidclean.LenientEnd,
		Explain:    &rfidclean.BuildExplain{},
		Quotient:   true,
	}
	var (
		cleaned *rfidclean.Cleaned
		err     error
	)
	// Smoothing work is labeled stream_smooth regardless of which route
	// triggered it (the smooth endpoint or the closing smooth).
	pprof.Do(ctx, pprof.Labels("endpoint", "stream_smooth", "deployment", sess.dep.id), func(context.Context) {
		cleaned, err = sess.dep.sys.SmoothState(sess.state, opts)
	})
	s.metrics.streamSmooths.Inc(smoothMode)
	if err != nil {
		// The forward pass accepted this prefix, so conditioning can only
		// fail on internal errors, not on constraint violations.
		return CleanResponse{}, http.StatusInternalServerError, err
	}
	ids, err := s.admit(ctx, sess.dep, []*rfidclean.Cleaned{cleaned})
	if err != nil {
		return CleanResponse{}, http.StatusNotFound, err
	}
	st := cleaned.Stats()
	outcome = "ok"
	s.metrics.cleanSeconds.Observe(time.Since(start).Seconds())
	resp := CleanResponse{ID: ids[0], Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes}
	sess.hub.publish(eventKindSmooth, StreamSmoothEvent{ID: sess.id, Trajectory: resp, Mode: smoothMode})
	return resp, http.StatusCreated, nil
}

// handleStreamSmooth serves POST /v1/stream/{id}/smooth: the on-demand
// smooth. The session stays open and keeps accepting readings.
func (s *Server) handleStreamSmooth(w http.ResponseWriter, r *http.Request, sess *streamSession) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == nil {
		writeGone(w, sess.id)
		return
	}
	sess.touch()
	resp, status, err := s.smoothLocked(r.Context(), sess)
	if err != nil {
		writeError(w, status, "smoothing failed: %v", err)
		return
	}
	writeJSON(w, status, resp)
}

// StreamCloseResponse is the DELETE /v1/stream/{id} answer.
type StreamCloseResponse struct {
	Closed string `json:"closed"`
	// Trajectory holds the final smoothed ct-graph (unless smoothing was
	// skipped); query it under /v1/trajectories/{id}.
	Trajectory *CleanResponse `json:"trajectory,omitempty"`
}

// handleStreamClose serves DELETE /v1/stream/{id}. By default the accepted
// readings are smoothed one last time so the client walks away with the
// ct-graph answer; ?smooth=no (or false/0) skips that, as does a session
// with no readings. Any other ?smooth= value is rejected up front — a typo like
// ?smooth=nope used to silently smooth, the opposite of what was asked.
func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request, sess *streamSession) {
	smooth := true
	switch q := strings.ToLower(r.URL.Query().Get("smooth")); q {
	case "", "yes", "true", "1":
	case "no", "false", "0":
		smooth = false
	default:
		writeError(w, http.StatusBadRequest, "invalid ?smooth=%q (want yes/true/1 or no/false/0)", q)
		return
	}
	if !s.sessions.remove(sess.id) {
		// Lost the race with the reaper, an eviction, or a concurrent close:
		// the session existed moments ago, so it is gone, not unknown.
		writeGone(w, sess.id)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// The hub outlives remove just long enough for the final smooth event,
	// then broadcasts the terminal close and drops every subscriber.
	defer sess.hub.shutdown(closeReasonClosed)
	// The state goes back to the pool once the answer is sent.
	defer sess.releaseLocked()
	out := StreamCloseResponse{Closed: sess.id}
	if smooth && sess.state.Duration() > 0 {
		resp, status, err := s.smoothLocked(r.Context(), sess)
		if err != nil {
			writeError(w, status, "session closed, but final smoothing failed: %v", err)
			return
		}
		out.Trajectory = &resp
	}
	writeJSONFlushed(w, http.StatusOK, out)
}

// writeJSONFlushed is writeJSON with the body's length declared and the
// response flushed to the client, so what the handler does after it (a
// close's release and hub shutdown) does not delay the answer.
func writeJSONFlushed(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	// Like writeJSON's, a failed write or flush means the client went away;
	// the handler has nothing left to tell it.
	_ = http.NewResponseController(w).Flush()
}
