package server

import (
	"context"
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
// through the deployment prior into a per-session incremental build state
// (core.BuildState), which keeps Algorithm 1's forward pass alive across
// readings. At any point the client can read the *filtered* distribution of
// the object's current location (conditioned on the past only — the best an
// online cleaner can do); on demand, or when the session closes, smoothing
// re-runs only the backward/revise suffix the newest readings can
// invalidate and yields a ct-graph bit-identical to a full offline rebuild,
// stored in the trajectory store where the usual query endpoints apply.
// Sessions opened with a beam width route filtering through a core.Filter
// (the beam cap is a frontier approximation BuildState does not make) but
// still smooth incrementally through the exact state.
//
//	POST   /v1/stream                     StreamOpenRequest -> {"id": ...}
//	POST   /v1/stream/{id}/readings      append readings -> StreamStatus
//	GET    /v1/stream/{id}[?top=k]       current filtered distribution
//	GET    /v1/stream/{id}/events        SSE event subscription (hub.go)
//	POST   /v1/stream/{id}/smooth        offline re-clean -> CleanResponse
//	DELETE /v1/stream/{id}[?smooth=no]   close (smoothing by default)
//
// The readings POST and the status GET also speak a compact binary codec
// (see codec.go), negotiated per request via Content-Type / Accept:
// application/x-rfidclean.
//
// Sessions are bounded three ways: a beam width caps each filter's frontier
// (an approximation trade documented on FilterOptions), a per-session
// reading budget caps the smoothing buffer, and a server-wide session cap
// evicts the least-recently-active session when full. Idle sessions are
// reaped by a background goroutine after a TTL; the reaper is wired into
// Server.Close so a graceful shutdown drains it deterministically.

// streamSession is one live-tracking session. Its mutex serializes state
// advancement and buffer appends; lastActive is atomic so the reaper can
// scan sessions without contending with a slow Observe.
type streamSession struct {
	id   string
	dep  *deployment
	prms rfidclean.ConstraintParams
	// ic pins the constraint set the session's state was built under.
	// smoothLocked compares it against the cache's current answer for prms:
	// a pointer change means the cache was recalibrated or cycled under us,
	// so the incremental state is stale and smoothing falls back to a full
	// rebuild.
	ic *rfidclean.ConstraintSet

	// hub fans the session's delta/smooth/close events out to SSE
	// subscribers (hub.go). It is created with the session and closed by
	// whichever path removes the session.
	hub *sessionHub

	mu sync.Mutex
	// state is the incremental build: one forward level per accepted
	// reading, smoothed on demand. It also answers frontier queries for
	// exact (beam-less) sessions.
	state *rfidclean.BuildState
	// filter is non-nil only for beam-capped sessions, where the bounded
	// frontier it maintains is the distribution the client asked for.
	filter   *rfidclean.Filter
	readings rfidclean.ReadingSequence // buffered for smoothing fallback
	dead     bool                      // constraints ruled out every continuation

	lastActive atomic.Int64 // unix nanoseconds
}

// time returns the last observed timestamp (-1 before the first reading);
// the caller holds ss.mu.
func (ss *streamSession) time() int {
	if ss.filter != nil {
		return ss.filter.Time()
	}
	return ss.state.Time()
}

func (ss *streamSession) touch() { ss.lastActive.Store(time.Now().UnixNano()) }

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
	maxReadings int           // per-session smoothing buffer (maxSessionReadings)
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
func (st *sessionStore) open(dep *deployment, prms rfidclean.ConstraintParams, ic *rfidclean.ConstraintSet, state *rfidclean.BuildState, f *rfidclean.Filter) *streamSession {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	if len(st.sessions) >= st.maxSessions {
		st.evictOldestLocked()
	}
	st.next = nextStridedID(st.next, st.stride, st.offset)
	s := &streamSession{
		id:     "s" + strconv.Itoa(st.next),
		dep:    dep,
		prms:   prms,
		ic:     ic,
		state:  state,
		filter: f,
	}
	s.hub = newSessionHub(s.id, subscriberBuffer, st.history, st.m)
	s.touch()
	st.sessions[s.id] = s
	st.m.streamSessions.Set(int64(len(st.sessions)))
	if !st.reaping {
		st.reaping = true
		go st.reapLoop()
	}
	return s
}

// evictOldestLocked removes the session with the stalest activity stamp.
// Equal stamps — common when sessions are opened in a burst within the
// clock's resolution — are broken by numeric session id, oldest id first, so
// the victim is deterministic rather than whatever the map iterator happens
// to visit first. It maintains the open-session gauge itself so any future
// caller beyond open leaves it consistent.
func (st *sessionStore) evictOldestLocked() {
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
		return
	}
	delete(st.sessions, victim.id)
	st.markGoneLocked(victim.id)
	st.m.streamSessions.Set(int64(len(st.sessions)))
	st.m.streamEvicted.Inc()
	if st.onEvict != nil {
		st.onEvict(1)
	}
	victim.hub.shutdown(closeReasonEvicted)
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
	if first {
		for id, s := range st.sessions {
			st.markGoneLocked(id)
			s.hub.shutdown(closeReasonShutdown)
		}
		st.sessions = make(map[string]*streamSession)
		st.m.streamSessions.Set(0)
	}
	st.mu.Unlock()
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
	// Beam optionally caps the filter's frontier (0 = exact filtering).
	// Long, highly ambiguous streams trade a little exactness for a hard
	// per-session memory bound.
	Beam int `json:"beam"`
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
	// Readings is how many readings the session has buffered for smoothing.
	Readings int `json:"readings"`
	// Frontier is the filter's live node count (memory gauge).
	Frontier int `json:"frontier"`
	// Beam echoes the session's beam width (0 = exact).
	Beam int `json:"beam,omitempty"`
	// Dead reports that the constraints ruled out every continuation; the
	// session only serves its buffered prefix from here on.
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
	dep := s.lookupDeployment(req.Deployment)
	if dep == nil {
		writeError(w, http.StatusNotFound, "unknown deployment %q", req.Deployment)
		return
	}
	if req.MaxSpeed <= 0 {
		writeError(w, http.StatusBadRequest, "maxSpeed must be positive")
		return
	}
	if req.Beam < 0 {
		writeError(w, http.StatusBadRequest, "beam must be >= 0")
		return
	}
	prms := rfidclean.ConstraintParams{MaxSpeed: req.MaxSpeed, MinStay: req.MinStay, TTCap: req.TTCap}
	ic, err := s.constraints(r.Context(), dep, prms)
	if err != nil {
		writeError(w, http.StatusBadRequest, "constraint inference: %v", err)
		return
	}
	state := rfidclean.NewBuildState(ic)
	var f *rfidclean.Filter
	if req.Beam > 0 {
		f = rfidclean.NewFilter(ic, &rfidclean.FilterOptions{Beam: req.Beam})
	}
	sess := s.sessions.open(dep, prms, ic, state, f)
	if sess == nil {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if dep.dead.Load() {
		// The deployment was deleted between lookup and open: the session
		// would pin a dead deployment and every smooth would orphan its
		// graphs. Close it as if it were never opened.
		s.sessions.remove(sess.id)
		sess.hub.shutdown(closeReasonClosed)
		writeError(w, http.StatusNotFound, "deployment %q was deleted", dep.id)
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
			writeError(w, http.StatusGone, "stream session %q is closed; open a new session and re-send", id)
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
	st := StreamStatus{
		ID:         sess.id,
		Deployment: sess.dep.id,
		Time:       sess.time(),
		Readings:   len(sess.readings),
		Dead:       sess.dead,
	}
	if sess.filter != nil {
		st.Frontier = sess.filter.FrontierSize()
		st.Beam = sess.filter.Beam()
	} else {
		st.Frontier = sess.state.FrontierSize()
	}
	return st
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
// filter one timestamp per reading. Timestamps must arrive densely and in
// order: reading N is timestamp N. A duplicate or out-of-order timestamp is
// rejected with 409, a gap with 422, and a reading the constraints rule out
// kills the session (422; the buffered prefix remains smoothable). On a
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
	// pprof.Do) so profile samples from the filter and state updates carry
	// the endpoint and deployment.
	labeled := pprof.WithLabels(r.Context(), pprof.Labels("endpoint", "stream_readings", "deployment", sess.dep.id))
	pprof.SetGoroutineLabels(labeled)
	defer pprof.SetGoroutineLabels(r.Context())
	sess.mu.Lock()
	defer sess.mu.Unlock()
	defer sess.touch()
	if sess.dead {
		s.metrics.streamReadings.Inc("dead_session")
		writeError(w, http.StatusGone, "session %s hit a dead end at timestamp %d and accepts no more readings", sess.id, sess.time()+1)
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
		next := len(sess.readings)
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
		// Beam sessions observe the filter first: its frontier is a subset
		// of the exact state's, so a reading the filter accepts cannot
		// dead-end the state, and a reading the filter rejects leaves the
		// state covering exactly the buffered prefix. (A beam dead end is
		// an approximation artifact — the exact state may still be alive —
		// but the session dies either way: its filtered answers are gone.)
		start := time.Now()
		if sess.filter != nil {
			err = sess.filter.Observe(cands)
		}
		if err == nil {
			err = sess.state.Observe(cands)
		}
		s.metrics.observeSeconds.Observe(time.Since(start).Seconds())
		if errors.Is(err, rfidclean.ErrNoValidTrajectory) {
			sess.dead = true
			s.metrics.streamReadings.Inc("dead_end")
			writeError(w, http.StatusUnprocessableEntity, "timestamp %d is inconsistent with the constraints; session is dead (buffered prefix of %d readings remains smoothable)", reading.Time, len(sess.readings))
			return
		}
		if err != nil {
			s.metrics.streamReadings.Inc("bad_reading")
			writeError(w, http.StatusBadRequest, "timestamp %d: %v", reading.Time, err)
			return
		}
		sess.readings = append(sess.readings, reading)
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
	sess.touch()
	st := statusLocked(sess)
	if sess.time() >= 0 {
		var (
			dist []rfidclean.LocProb
			err  error
		)
		switch {
		case sess.filter != nil && top > 0:
			dist, err = sess.filter.TopLocations(top)
		case sess.filter != nil:
			dist, err = sess.filter.Distribution()
		case top > 0:
			dist, err = sess.state.TopLocations(top)
		default:
			dist, err = sess.state.Distribution()
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		st.Current = make([]LocationProb, len(dist))
		for i, lp := range dist {
			st.Current[i] = LocationProb{Location: sess.dep.sys.Plan.Location(lp.Loc).Name, P: lp.P}
		}
	}
	writeStreamStatus(w, r, http.StatusOK, st)
}

// smoothLocked conditions the buffered sequence (LenientEnd, so the final
// timestamp agrees with the filtered answer) and stores the ct-graph in the
// trajectory store. The fast path reuses the session's incremental build
// state — only the backward/revise suffix the newest readings can
// invalidate is recomputed, and the result is bit-identical to a full
// rebuild. It falls back to a full offline CleanCtx when the constraint
// cache no longer returns the set the state was built under (recalibration
// or cache cycling) or when the state does not cover the whole buffer. The
// caller holds sess.mu.
func (s *Server) smoothLocked(ctx context.Context, sess *streamSession) (CleanResponse, int, error) {
	if len(sess.readings) == 0 {
		return CleanResponse{}, http.StatusUnprocessableEntity,
			errors.New("session has no readings to smooth")
	}
	start := time.Now()
	outcome := "error"
	defer func() { s.metrics.cleanRequests.Inc("stream", outcome) }()
	ic, err := s.constraints(ctx, sess.dep, sess.prms)
	if err != nil {
		return CleanResponse{}, http.StatusInternalServerError, err
	}
	opts := &rfidclean.BuildOptions{
		EndLatency: rfidclean.LenientEnd,
		Explain:    &rfidclean.BuildExplain{},
	}
	var cleaned *rfidclean.Cleaned
	mode := "full"
	// Smoothing work is labeled stream_smooth regardless of which route
	// triggered it (the smooth endpoint or the closing smooth).
	pprof.Do(ctx, pprof.Labels("endpoint", "stream_smooth", "deployment", sess.dep.id), func(ctx context.Context) {
		if sess.state != nil && sess.ic == ic && sess.state.Duration() == len(sess.readings) {
			mode = "incremental"
			cleaned, err = sess.dep.sys.SmoothState(sess.state, opts)
		} else {
			cleaned, err = sess.dep.sys.CleanCtx(ctx, sess.readings, ic, opts)
		}
	})
	s.metrics.streamSmooths.Inc(mode)
	if err != nil {
		// The forward pass accepted this prefix, so conditioning can only
		// fail on internal errors, not on constraint violations.
		return CleanResponse{}, http.StatusInternalServerError, err
	}
	s.metrics.recordExplain(cleaned.Explain())
	_, sp := obs.Start(ctx, "store.add")
	id := s.store.add(sess.dep.id, cleaned)
	sp.End()
	if sess.dep.dead.Load() {
		// The session outlived its deployment (deleted mid-stream). The
		// graph just stored would be an orphan — remove it (idempotent
		// against the delete's own sweep) and report the deployment gone.
		s.store.delete(id)
		return CleanResponse{}, http.StatusNotFound,
			errors.New("deployment " + sess.dep.id + " was deleted")
	}
	st := cleaned.Stats()
	outcome = "ok"
	s.metrics.cleanSeconds.Observe(time.Since(start).Seconds())
	s.metrics.graphBytes.Observe(float64(st.Bytes))
	resp := CleanResponse{ID: id, Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes}
	sess.hub.publish(eventKindSmooth, StreamSmoothEvent{ID: sess.id, Trajectory: resp, Mode: mode})
	return resp, http.StatusCreated, nil
}

// handleStreamSmooth serves POST /v1/stream/{id}/smooth: the on-demand
// offline re-clean. The session stays open and keeps accepting readings.
func (s *Server) handleStreamSmooth(w http.ResponseWriter, r *http.Request, sess *streamSession) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
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

// handleStreamClose serves DELETE /v1/stream/{id}. By default the buffered
// sequence is smoothed one last time so the client walks away with the
// ct-graph answer; ?smooth=no (or false/0) skips that, as does an empty
// buffer. Any other ?smooth= value is rejected up front — a typo like
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
		writeError(w, http.StatusGone, "stream session %q is closed; open a new session and re-send", sess.id)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	// The hub outlives remove just long enough for the final smooth event,
	// then broadcasts the terminal close and drops every subscriber.
	defer sess.hub.shutdown(closeReasonClosed)
	out := StreamCloseResponse{Closed: sess.id}
	if smooth && len(sess.readings) > 0 {
		resp, status, err := s.smoothLocked(r.Context(), sess)
		if err != nil {
			writeError(w, status, "session closed, but final smoothing failed: %v", err)
			return
		}
		out.Trajectory = &resp
	}
	writeJSON(w, http.StatusOK, out)
}
