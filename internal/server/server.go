// Package server exposes the cleaning framework as an HTTP service: upload
// a deployment (map + readers), post reading sequences to be cleaned, then
// query the resulting conditioned trajectory graphs — the warehousing
// workflow the paper's §5 remark sketches (clean once, query many times).
//
// The API is JSON over HTTP:
//
//	POST   /v1/deployments                 deployment JSON -> {"id": ...}
//	GET    /v1/deployments                 list deployments
//	GET    /v1/deployments/{id}            one deployment's row
//	DELETE /v1/deployments/{id}            delete it (and its trajectories)
//	POST   /v1/clean                       CleanRequest -> CleanResponse
//	POST   /v1/clean/batch                 BatchCleanRequest -> []BatchCleanResult
//	POST   /v1/stream                      open a streaming session -> {"id": ...}
//	POST   /v1/stream/{id}/readings        append readings -> StreamStatus
//	GET    /v1/stream/{id}?top=k           current filtered distribution
//	GET    /v1/stream/{id}/events          SSE: delta/smooth/close events
//	POST   /v1/stream/{id}/smooth          smooth the accepted readings
//	DELETE /v1/stream/{id}                 close (final smooth unless ?smooth=no)
//	GET    /v1/trajectories                list stored trajectories
//	GET    /v1/trajectories/{id}/stay?t=N  stay-query distribution
//	GET    /v1/trajectories/{id}/match?pattern=...  trajectory query
//	GET    /v1/trajectories/{id}/top?k=N   k most probable trajectories
//	GET    /v1/trajectories/{id}/occupancy expected seconds per location
//	GET    /v1/trajectories/{id}/explain   cleaning explain report
//	DELETE /v1/trajectories/{id}           evict a cleaned graph
//	GET    /healthz                        liveness + store occupancy
//	GET    /metrics                        Prometheus text metrics
//	GET    /debug/traces                   recent request span trees
//
// By default the server keeps everything in memory. With Options.DataDir
// set (the daemon's -data-dir flag) it becomes a system of record:
// deployments and cleaned trajectory graphs are persisted — snapshot plus
// write-ahead log, compacted periodically — and recovered on the next boot
// (see persist.go for the protocol). Constraint inference is memoized per
// deployment (keyed by the clean parameters), POST bodies are size-limited,
// and the trajectory store can run under a byte budget with
// least-recently-queried eviction.
//
// Observability: every response carries an X-Request-ID (echoed or
// generated), each /v1/ request records a span trace addressable by that ID
// at /debug/traces, access lines go to the configured slog logger, and every
// server-side clean collects an explain report that feeds the explain
// endpoint plus the per-phase latency histograms and per-constraint prune
// counters on /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	rfidclean "repro"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Server is the HTTP query head. Create one with Open, mount it as an
// http.Handler, and Close it when done.
type Server struct {
	workers      int
	maxBody      int64         // POST body cap (BodyLimit)
	sseHeartbeat time.Duration // comment interval on idle SSE streams
	idStride     int           // id-allocation stride (Options.ShardCount; <= 1: single-node)
	idOffset     int           // this shard's residue class (Options.ShardIndex)

	mu          sync.RWMutex // guards deployments and nextDep
	deployments map[string]*deployment
	nextDep     int

	store    *trajStore
	sessions *sessionStore
	metrics  *serverMetrics
	logger   *slog.Logger
	recorder *obs.Recorder // nil when tracing is disabled
	persist  *persister    // nil when Options.DataDir is unset
	flight   *flightSink   // nil when the flight recorder is disabled
	mux      *http.ServeMux
}

// Options configures a Server.
type Options struct {
	// Workers caps how many sequences a batch clean processes concurrently.
	// Zero or negative uses GOMAXPROCS.
	Workers int
	// MaxStoreBytes caps the bytes the stored trajectories hold: each
	// graph's exact size plus its explain report. Past it, the
	// least-recently-queried graphs are evicted. Zero or negative means
	// unlimited.
	MaxStoreBytes int64
	// Logger receives structured access logs and server events. Nil
	// discards them.
	Logger *slog.Logger
	// TraceBuffer turns request and persistence tracing (GET /debug/traces)
	// off when negative; any other value leaves it on. Retention is the
	// recorder's fixed per-endpoint tail policy.
	TraceBuffer int
	// FlightInterval is the runtime flight recorder's sampling cadence
	// (GET /debug/flight; dumped to DataDir on eviction storms, persistence
	// errors and SIGQUIT). Zero uses the default (1s); negative disables the
	// flight recorder entirely.
	FlightInterval time.Duration
	// ShardCount and ShardIndex configure the server as worker shard
	// ShardIndex of ShardCount in a sharded deployment (cmd/rfidcleand
	// router mode). Resource ids — trajectories, stream sessions and
	// locally-minted deployment ids — are then allocated in the arithmetic
	// progression {n : n mod ShardCount == ShardIndex}, so no two shards
	// can ever mint the same id and the router derives the owner of an id
	// from its numeric residue. Worker mode also accepts router-assigned
	// deployment ids via the X-Rfidclean-Assign-Id header. ShardCount <= 1
	// is single-node: every id, stride 1, assigned ids refused.
	ShardCount int
	// ShardIndex must be in [0, ShardCount) when ShardCount > 1.
	ShardIndex int
	// DataDir, when non-empty, makes the server durable: deployments and
	// cleaned trajectory graphs are persisted under this directory and
	// recovered at construction (Open). Empty keeps everything in memory.
	DataDir string
	// SnapshotInterval is how often the trajectory write-ahead log is
	// compacted into a snapshot. Zero uses the default (1 minute); negative
	// disables periodic compaction (Close still compacts once). Ignored
	// without DataDir.
	SnapshotInterval time.Duration
}

// BodyLimit caps POST request bodies; a larger body is answered 413. The
// shard router applies the same cap to the bodies it forwards.
const BodyLimit = 32 << 20

// Fixed serving limits. They are not options. Open copies the ones tests
// need to shrink into fields of the Server (maxBody, sseHeartbeat) and its
// session store; a test sets those before sending traffic.
const (
	constraintCacheEntries = 64               // per-deployment constraint cache, LRU past it
	maxSessions            = 1024             // open streaming sessions; least-recently-active evicted past it
	sessionTTL             = 15 * time.Minute // idle streaming sessions are reaped after this
	maxSessionReadings     = 1 << 16          // readings (build-state levels) a session accepts; 429 past it
	subscriberBuffer       = 64               // events buffered per SSE subscriber; dropped past it
	eventHistory           = 256              // recent events a session keeps for Last-Event-ID resume
	sseHeartbeat           = 15 * time.Second // comment interval on idle SSE streams
	flightBuffer           = 300              // flight-recorder samples: five minutes at the default 1s
)

// AssignIDHeader carries a router-allocated deployment id on
// POST /v1/deployments. Only servers running in sharded worker mode
// (Options.ShardCount > 1) accept it: the router registers one deployment
// under the same id on every shard, and replays after a retried replication
// are answered idempotently (200 with the same id when the body matches,
// 409 when it does not).
const AssignIDHeader = "X-Rfidclean-Assign-Id"

type deployment struct {
	id    string
	dep   *rfidclean.Deployment
	sys   *rfidclean.System
	raw   []byte // canonical encoded form, reused by persistence snapshots
	cache *constraintCache
	// dead flips when DELETE /v1/deployments/{id} removes the deployment.
	// A clean or smooth that looked the deployment up before the delete
	// checks it after storing its graph (Server.admit): either the delete's
	// store sweep removes the graph, or the writer observes dead and removes
	// it itself — so an in-flight clean can never leave an orphan trajectory
	// behind a deleted deployment.
	dead atomic.Bool
}

// deletedErr answers a request whose deployment was deleted under it.
func (d *deployment) deletedErr() error {
	return fmt.Errorf("deployment %q was deleted", d.id)
}

type trajectory struct {
	id      string
	depID   string
	cleaned *rfidclean.Cleaned

	passesCharged atomic.Bool // the store charged the cached query passes
}

// Open returns a ready-to-serve Server. With Options.DataDir set it first
// recovers the persisted state (deployments, then the trajectory snapshot
// and write-ahead log — tolerating a corrupt or truncated log tail by
// keeping the valid prefix) and starts the background persistence writer;
// the error is non-nil only when the data directory is unusable or the
// atomically-written deployments snapshot is corrupt.
func Open(opts Options) (*Server, error) {
	stride, offset := opts.ShardCount, opts.ShardIndex
	if stride <= 1 {
		stride, offset = 1, 0
	} else if offset < 0 || offset >= stride {
		return nil, fmt.Errorf("server: ShardIndex %d out of range for ShardCount %d", opts.ShardIndex, opts.ShardCount)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var recorder *obs.Recorder
	if opts.TraceBuffer >= 0 {
		recorder = obs.NewRecorder()
	}
	m := newMetrics()
	if recorder != nil {
		// Exemplars are only emitted while their trace is still retained, so
		// every /metrics exemplar resolves at /debug/traces?id=.
		m.requestSeconds.held = recorder.Held
	}
	s := &Server{
		deployments:  make(map[string]*deployment),
		workers:      opts.Workers,
		maxBody:      BodyLimit,
		sseHeartbeat: sseHeartbeat,
		idStride:     stride,
		idOffset:     offset,
		store:        newTrajStore(opts.MaxStoreBytes, stride, offset, m),
		sessions:     newSessionStore(stride, offset, m),
		metrics:      m,
		logger:       logger,
		recorder:     recorder,
		mux:          http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/deployments", s.handleDeployments)
	s.mux.HandleFunc("/v1/deployments/", s.handleDeploymentByID)
	s.mux.HandleFunc("/v1/clean", s.handleClean)
	s.mux.HandleFunc("/v1/clean/batch", s.handleCleanBatch)
	s.mux.HandleFunc("/v1/stream", s.handleStreamOpen)
	s.mux.HandleFunc("/v1/stream/", s.handleStream)
	s.mux.HandleFunc("/v1/trajectories", s.handleTrajectoryList)
	s.mux.HandleFunc("/v1/trajectories/", s.handleTrajectory)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("/debug/flight", s.handleDebugFlight)
	s.mux.Handle("/metrics", m)
	if opts.FlightInterval >= 0 {
		s.flight = &flightSink{
			rec:     flight.New(opts.FlightInterval, flightBuffer, s.flightGauges),
			dataDir: opts.DataDir,
			logger:  logger,
		}
	}
	if opts.DataDir != "" {
		p, err := newPersister(opts.DataDir, opts.SnapshotInterval, m, logger, recorder)
		if err != nil {
			return nil, err
		}
		s.persist = p
		s.store.persist = p
		p.source = s.store.snapshot
		if err := s.recoverFrom(opts.DataDir); err != nil {
			p.wal.Close()
			return nil, err
		}
		p.start()
	}
	// Dump triggers attach after recovery so boot-time eviction of an
	// over-budget snapshot is not mistaken for a live storm.
	if s.flight != nil {
		s.store.onEvict = s.flight.noteEvictions
		s.sessions.onEvict = s.flight.noteEvictions
		if s.persist != nil {
			s.persist.onError = s.flight.notePersistError
		}
		s.flight.rec.Start()
	}
	return s, nil
}

// Close releases the server's background resources: it stops the streaming
// session reaper (waiting for the goroutine to exit), drops every open
// session, and — when persistence is enabled — drains the write-ahead-log
// writer, runs a final compaction, and closes the data files, so everything
// acknowledged before Close survives the process. Serving after Close
// answers stream opens with 503. It is idempotent and safe to call while
// requests are in flight.
func (s *Server) Close() error {
	s.sessions.close()
	if s.persist != nil {
		s.persist.shutdown(true)
	}
	if s.flight != nil {
		s.flight.rec.Close()
	}
	return nil
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
	// RequestID echoes the response's X-Request-ID so a client holding only
	// the body can still quote the failing request to /debug/traces.
	RequestID string `json:"requestId,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// limitBody applies the POST body cap.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
}

// bodyError writes the uniform error for a failed body decode: 413 when the
// size cap was hit, 400 otherwise. It returns the status written.
func (s *Server) bodyError(w http.ResponseWriter, err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.metrics.bodyRejections.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return http.StatusRequestEntityTooLarge
	}
	writeError(w, http.StatusBadRequest, "invalid request: %v", err)
	return http.StatusBadRequest
}

// rejectBinaryBody answers 415 when a binary-codec body is posted to an
// endpoint that only speaks JSON. Without this check the frame bytes fall
// into the JSON decoder and die with a misleading 400 parse error; the typed
// answer names the endpoints that do accept the codec.
func rejectBinaryBody(w http.ResponseWriter, r *http.Request) bool {
	if !requestIsBinary(r) {
		return false
	}
	writeError(w, http.StatusUnsupportedMediaType,
		"%s only accepts application/json; %s bodies are spoken only by POST /v1/stream/{id}/readings (and %s responses by GET /v1/stream/{id} and POST /v1/stream/{id}/readings via Accept)",
		r.URL.Path, ContentTypeBinary, ContentTypeBinary)
	return true
}

// decodeBody decodes a size-limited JSON POST body into v, writing the error
// response itself when decoding fails. Binary-codec bodies are refused with
// 415 — every decodeBody caller is a JSON-only endpoint.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if rejectBinaryBody(w, r) {
		return false
	}
	s.limitBody(w, r)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		s.bodyError(w, err)
		return false
	}
	return true
}

// handleDeployments serves POST (register) and GET (list).
func (s *Server) handleDeployments(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		if rejectBinaryBody(w, r) {
			return
		}
		s.limitBody(w, r)
		dep, err := rfidclean.DecodeDeployment(r.Body)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.bodyError(w, err)
				return
			}
			writeError(w, http.StatusBadRequest, "invalid deployment: %v", err)
			return
		}
		sys, err := dep.System()
		if err != nil {
			writeError(w, http.StatusBadRequest, "deployment rejected: %v", err)
			return
		}
		raw, err := dep.EncodeBytes()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding deployment: %v", err)
			return
		}
		assigned := r.Header.Get(AssignIDHeader)
		if assigned != "" && s.idStride <= 1 {
			writeError(w, http.StatusBadRequest,
				"%s is only accepted in sharded worker mode (ShardCount > 1)", AssignIDHeader)
			return
		}
		var assignedNum int
		if assigned != "" {
			n, ok := idNum("d", assigned)
			if !ok || n < 1 {
				writeError(w, http.StatusBadRequest, "invalid %s %q (want d<number>)", AssignIDHeader, assigned)
				return
			}
			assignedNum = n
		}
		s.mu.Lock()
		var id string
		if assigned != "" {
			// Router-assigned registration. The router replicates one
			// registration to every shard with retry, so a replay of an id
			// this shard already holds is expected — idempotent when the
			// body matches, a 409 when it does not (two routers, or a
			// counter that went backwards).
			if existing := s.deployments[assigned]; existing != nil {
				match := bytes.Equal(existing.raw, raw)
				s.mu.Unlock()
				if match {
					writeJSON(w, http.StatusOK, map[string]string{"id": assigned})
					return
				}
				writeError(w, http.StatusConflict,
					"deployment id %q is already registered with a different definition", assigned)
				return
			}
			id = assigned
			if assignedNum > s.nextDep {
				s.nextDep = assignedNum
			}
		} else {
			s.nextDep = nextStridedID(s.nextDep, s.idStride, s.idOffset)
			id = "d" + strconv.Itoa(s.nextDep)
		}
		s.deployments[id] = &deployment{
			id: id, dep: dep, sys: sys, raw: raw,
			cache: newConstraintCache(constraintCacheEntries),
		}
		s.deploymentsChangedLocked()
		s.mu.Unlock()
		s.persistDeployments()
		writeJSON(w, http.StatusCreated, map[string]string{"id": id})
	case http.MethodGet:
		type row struct {
			ID        string `json:"id"`
			Name      string `json:"name"`
			Locations int    `json:"locations"`
			Readers   int    `json:"readers"`
		}
		s.mu.RLock()
		rows := make([]row, 0, len(s.deployments))
		for id, d := range s.deployments {
			rows = append(rows, row{
				ID: id, Name: d.dep.Name,
				Locations: d.dep.Plan.NumLocations(),
				Readers:   len(d.dep.Readers),
			})
		}
		s.mu.RUnlock()
		sort.Slice(rows, func(i, j int) bool { return IDLess(rows[i].ID, rows[j].ID) })
		writeJSON(w, http.StatusOK, rows)
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// handleDeploymentByID serves GET (one row) and DELETE (drop the deployment
// and its stored trajectories) on /v1/deployments/{id}.
func (s *Server) handleDeploymentByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/deployments/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "unknown deployment path %q", r.URL.Path)
		return
	}
	switch r.Method {
	case http.MethodGet:
		d := s.lookupDeployment(id)
		if d == nil {
			writeError(w, http.StatusNotFound, "unknown deployment %q", id)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":        d.id,
			"name":      d.dep.Name,
			"locations": d.dep.Plan.NumLocations(),
			"readers":   len(d.dep.Readers),
		})
	case http.MethodDelete:
		s.mu.Lock()
		d, ok := s.deployments[id]
		if ok {
			// Flip dead before the store sweep below: a clean that resolved
			// this deployment before the delete re-checks dead after storing
			// its graph, so whichever of {sweep, post-add check} runs second
			// removes the graph (see the deployment.dead field comment).
			d.dead.Store(true)
			delete(s.deployments, id)
			s.deploymentsChangedLocked()
		}
		s.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, "unknown deployment %q", id)
			return
		}
		// Trajectories cleaned under the deployment go with it: they could
		// not be recovered after a restart (no plan to decode against), so
		// keeping them live would make restart behavior diverge.
		dropped := s.store.deleteByDep(id)
		s.persistDeployments()
		writeJSON(w, http.StatusOK, map[string]any{"deleted": id, "trajectories": dropped})
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// TrajectoryRow is one entry of the GET /v1/trajectories listing.
type TrajectoryRow struct {
	ID         string `json:"id"`
	Deployment string `json:"deployment"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Bytes      int    `json:"bytes"`
}

// handleTrajectoryList serves GET /v1/trajectories: every stored trajectory,
// ids in numeric order.
func (s *Server) handleTrajectoryList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.metrics.queryOps.Inc("list")
	writeJSON(w, http.StatusOK, s.store.list())
}

// SplitID separates an id like "t12" into its non-digit prefix and numeric
// suffix. ok is false when the suffix is missing or not all digits.
func SplitID(id string) (prefix string, n int, ok bool) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	if i == len(id) {
		return id, 0, false
	}
	n, err := strconv.Atoi(id[i:])
	if err != nil {
		return id, 0, false
	}
	return id[:i], n, true
}

// IDLess orders ids numerically within a shared prefix ("d2" before "d10"),
// falling back to lexicographic order across prefixes or for ids without a
// numeric suffix.
func IDLess(a, b string) bool {
	ap, an, aok := SplitID(a)
	bp, bn, bok := SplitID(b)
	if aok && bok && ap == bp {
		if an != bn {
			return an < bn
		}
		return a < b
	}
	return a < b
}

// idNum extracts the numeric suffix of an id with the given prefix ("t",
// "d") — used to restore id counters from recovered state. ok is false when
// the id does not match the prefix or has no numeric suffix.
func idNum(prefix, id string) (int, bool) {
	p, n, ok := SplitID(id)
	if !ok || p != prefix {
		return 0, false
	}
	return n, true
}

// nextStridedID returns the smallest n > cur with n % stride == offset;
// stride <= 1 degenerates to cur+1. Id counters in a sharded deployment
// advance through this so worker shard i of N mints ids congruent to i mod
// N: two shards can never mint the same id, and the router derives the
// owner of an existing id from its residue alone — no ring lookup, no
// shared counter. It also rounds counters recovered from a pre-sharding
// data directory (or a different shard assignment) up to the shard's own
// residue class instead of trusting their residue.
func nextStridedID(cur, stride, offset int) int {
	n := cur + 1
	if stride <= 1 {
		return n
	}
	rem := n % stride
	if rem <= offset {
		return n + offset - rem
	}
	return n + stride - rem + offset
}

// deploymentsChangedLocked sets the deployment gauges after a registration,
// a deletion or recovery; the caller holds s.mu (or is still booting).
func (s *Server) deploymentsChangedLocked() {
	bytes := 0
	for _, d := range s.deployments {
		bytes += d.sys.Truth.Bytes()
		if d.sys.Prior != nil {
			bytes += d.sys.Prior.Matrix().Bytes()
		}
	}
	s.metrics.deployments.Set(int64(len(s.deployments)))
	s.metrics.matrixBytes.Set(int64(bytes))
}

// lookupDeployment resolves a deployment id under a read lock.
func (s *Server) lookupDeployment(id string) *deployment {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.deployments[id]
}

// resolve looks up the deployment a clean, batch clean or stream open names
// and its constraint set for p, through the deployment's cache. On failure
// it writes the error (404 unknown deployment, 400 bad maxSpeed or failed
// inference) and returns a nil deployment and the clean-outcome label.
func (s *Server) resolve(ctx context.Context, w http.ResponseWriter, depID string, p rfidclean.ConstraintParams) (*deployment, *rfidclean.ConstraintSet, string) {
	dep := s.lookupDeployment(depID)
	if dep == nil {
		writeError(w, http.StatusNotFound, "unknown deployment %q", depID)
		return nil, nil, "not_found"
	}
	if p.MaxSpeed <= 0 {
		writeError(w, http.StatusBadRequest, "maxSpeed must be positive")
		return nil, nil, "bad_request"
	}
	_, sp := obs.Start(ctx, "constraints.lookup")
	ic, err, hit := dep.cache.get(p, func() (*rfidclean.ConstraintSet, error) {
		return dep.sys.Constraints(p)
	})
	if hit {
		s.metrics.cacheHits.Inc()
		sp.Str("cache", "hit")
	} else {
		s.metrics.cacheMisses.Inc()
		sp.Str("cache", "miss")
	}
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "constraint inference: %v", err)
		return nil, nil, "bad_request"
	}
	return dep, ic, ""
}

// admit stores the graphs a clean, batch clean or stream smooth produced,
// positionally (nil slots get ""), with ids from one critical section. If
// the deployment was deleted meanwhile, it follows the deployment.dead
// protocol: it removes what it stored and returns deletedErr. Otherwise it
// records each graph's explain report and size.
func (s *Server) admit(ctx context.Context, dep *deployment, cleaned []*rfidclean.Cleaned) ([]string, error) {
	_, sp := obs.Start(ctx, "store.add")
	ids := s.store.addBatch(dep.id, cleaned)
	sp.End()
	if dep.dead.Load() {
		for _, id := range ids {
			if id != "" {
				s.store.delete(id)
			}
		}
		return nil, dep.deletedErr()
	}
	for _, c := range cleaned {
		if c != nil {
			s.metrics.recordExplain(c.Explain())
			s.metrics.graphBytes.Observe(float64(c.Stats().Bytes))
		}
	}
	return ids, nil
}

// CleanRequest asks the server to clean one reading sequence against a
// registered deployment.
type CleanRequest struct {
	// Deployment is the id returned by POST /v1/deployments.
	Deployment string `json:"deployment"`
	// Tag optionally names the monitored object. The server itself ignores
	// it, but a sharding router keys placement on it so one object's
	// requests co-locate on a shard.
	Tag string `json:"tag,omitempty"`
	// Readings is the sequence to clean (one reading per timestamp).
	Readings rfidclean.ReadingSequence `json:"readings"`
	// Group optionally carries additional sequences of tags moving
	// together with Readings; all are fused before conditioning.
	Group []rfidclean.ReadingSequence `json:"group,omitempty"`
	// MaxSpeed (m/s) drives TT inference; required, > 0.
	MaxSpeed float64 `json:"maxSpeed"`
	// MinStay (s) drives LT inference on non-corridor locations.
	MinStay int `json:"minStay"`
	// TTCap optionally truncates TT horizons (0 = uncapped).
	TTCap int `json:"ttCap"`
	// StrictEnd selects Definition 2's end-of-window latency semantics.
	StrictEnd bool `json:"strictEnd"`
}

// CleanResponse reports the cleaned trajectory handle and the size of the
// graph stored for it: the quotient of its ct-graph. Bytes is that graph's
// exact Stats().Bytes; the store's budget also charges the explain report
// kept beside it.
type CleanResponse struct {
	ID    string `json:"id"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	Bytes int    `json:"bytes"`
}

func (s *Server) handleClean(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	start := time.Now()
	mode, outcome := "single", "error"
	defer func() { s.metrics.cleanRequests.Inc(mode, outcome) }()

	var req CleanRequest
	if !s.decodeBody(w, r, &req) {
		outcome = "bad_request"
		return
	}
	if len(req.Group) > 0 {
		mode = "group"
	}
	ctx := r.Context()
	dep, ic, failed := s.resolve(ctx, w, req.Deployment, rfidclean.ConstraintParams{
		MaxSpeed: req.MaxSpeed, MinStay: req.MinStay, TTCap: req.TTCap,
	})
	if dep == nil {
		outcome = failed
		return
	}
	// Explain reports are always collected on server cleans: they feed the
	// per-phase/per-constraint metrics and the explain endpoint, and cost a
	// few hundred bytes next to the graph itself. The server stores and logs
	// the quotient of every graph (DESIGN §3m).
	opts := &rfidclean.BuildOptions{EndLatency: endMode(req.StrictEnd), Explain: &rfidclean.BuildExplain{}, Quotient: true}
	// Profiler labels tie CPU/heap samples from the conditioning passes back
	// to the API surface and deployment that caused them.
	var (
		cleaned *rfidclean.Cleaned
		err     error
	)
	pprof.Do(ctx, pprof.Labels("endpoint", "clean", "deployment", dep.id), func(ctx context.Context) {
		if mode == "group" {
			group := append([]rfidclean.ReadingSequence{req.Readings}, req.Group...)
			cleaned, err = dep.sys.CleanGroupCtx(ctx, group, ic, opts)
		} else {
			cleaned, err = dep.sys.CleanCtx(ctx, req.Readings, ic, opts)
		}
	})
	switch {
	case errors.Is(err, rfidclean.ErrNoValidTrajectory):
		outcome = "inconsistent"
		writeError(w, http.StatusUnprocessableEntity, "readings are inconsistent with the constraints")
		return
	case err != nil:
		outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "cleaning failed: %v", err)
		return
	}
	ids, err := s.admit(ctx, dep, []*rfidclean.Cleaned{cleaned})
	if err != nil {
		outcome = "not_found"
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	st := cleaned.Stats()
	outcome = "ok"
	s.metrics.cleanSeconds.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusCreated, CleanResponse{ID: ids[0], Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes})
}

func endMode(strict bool) rfidclean.EndLatencyMode {
	if strict {
		return rfidclean.StrictEnd
	}
	return rfidclean.LenientEnd
}

// BatchCleanRequest asks the server to clean many independent reading
// sequences against one deployment in a single call. The sequences are
// cleaned concurrently (bounded by the server's worker option) and each
// slot succeeds or fails on its own.
type BatchCleanRequest struct {
	// Deployment is the id returned by POST /v1/deployments.
	Deployment string `json:"deployment"`
	// Sequences are the independent objects' reading sequences.
	Sequences []rfidclean.ReadingSequence `json:"sequences"`
	// MaxSpeed, MinStay, TTCap and StrictEnd mirror CleanRequest and apply
	// to every sequence in the batch.
	MaxSpeed  float64 `json:"maxSpeed"`
	MinStay   int     `json:"minStay"`
	TTCap     int     `json:"ttCap"`
	StrictEnd bool    `json:"strictEnd"`
}

// BatchCleanResult is the outcome for one slot of a batch clean: either a
// stored trajectory (Error empty) or a per-slot failure (ID empty).
type BatchCleanResult struct {
	ID    string `json:"id,omitempty"`
	Nodes int    `json:"nodes,omitempty"`
	Edges int    `json:"edges,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
	Error string `json:"error,omitempty"`
}

func (s *Server) handleCleanBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	start := time.Now()
	outcome := "error"
	defer func() { s.metrics.cleanRequests.Inc("batch", outcome) }()

	var req BatchCleanRequest
	if !s.decodeBody(w, r, &req) {
		outcome = "bad_request"
		return
	}
	if len(req.Sequences) == 0 {
		outcome = "bad_request"
		writeError(w, http.StatusBadRequest, "sequences must be non-empty")
		return
	}
	ctx := r.Context()
	dep, ic, failed := s.resolve(ctx, w, req.Deployment, rfidclean.ConstraintParams{
		MaxSpeed: req.MaxSpeed, MinStay: req.MinStay, TTCap: req.TTCap,
	})
	if dep == nil {
		outcome = failed
		return
	}
	// CleanAll clones these options per slot (fresh Explain each), so the
	// concurrent workers never share a report; their spans all record into
	// this request's trace, which is safe for concurrent use.
	var (
		cleaned []*rfidclean.Cleaned
		errs    []error
	)
	// The batch workers inherit these labels, so a profile attributes every
	// slot's conditioning to the batch endpoint and its deployment.
	pprof.Do(ctx, pprof.Labels("endpoint", "clean_batch", "deployment", dep.id), func(ctx context.Context) {
		cleaned, errs = dep.sys.CleanAll(req.Sequences, ic, &rfidclean.BatchOptions{
			Build: &rfidclean.BuildOptions{
				EndLatency: endMode(req.StrictEnd), Explain: &rfidclean.BuildExplain{}, Quotient: true,
			},
			Workers: s.workers,
			Context: ctx, // a vanished client stops burning CPU on unstarted slots
		})
	})
	ids, err := s.admit(ctx, dep, cleaned)
	if err != nil {
		outcome = "not_found"
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	out := make([]BatchCleanResult, len(req.Sequences))
	for i := range req.Sequences {
		if errs[i] != nil {
			s.metrics.batchSlots.Inc("error")
			out[i] = BatchCleanResult{Error: errs[i].Error()}
			continue
		}
		s.metrics.batchSlots.Inc("ok")
		st := cleaned[i].Stats()
		out[i] = BatchCleanResult{ID: ids[i], Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes}
	}
	outcome = "ok"
	s.metrics.cleanSeconds.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, out)
}

// handleTrajectory routes /v1/trajectories/{id}[/{op}].
func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/trajectories/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	op := ""
	if len(parts) == 2 {
		op = parts[1]
	}
	if r.Method == http.MethodDelete && op == "" {
		if !s.store.delete(id) {
			writeError(w, http.StatusNotFound, "unknown trajectory %q", id)
			return
		}
		s.metrics.queryOps.Inc("delete")
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
		return
	}
	traj := s.store.get(id)
	if traj == nil {
		writeError(w, http.StatusNotFound, "unknown trajectory %q", id)
		return
	}
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	switch op {
	case "stay", "match", "top", "occupancy", "explain":
		s.metrics.queryOps.Inc(op)
		_, sp := obs.Start(r.Context(), "query."+op)
		switch op {
		case "stay":
			s.handleStay(w, r, traj)
		case "match":
			s.handleMatch(w, r, traj)
		case "top":
			s.handleTop(w, r, traj)
		case "occupancy":
			s.handleOccupancy(w, traj)
		case "explain":
			s.handleExplain(w, traj)
		}
		sp.End()
	case "":
		s.metrics.queryOps.Inc("stats")
		st := traj.cleaned.Stats()
		writeJSON(w, http.StatusOK, CleanResponse{ID: traj.id, Nodes: st.Nodes, Edges: st.Edges, Bytes: st.Bytes})
	default:
		writeError(w, http.StatusNotFound, "unknown operation %q", op)
	}
}

// ExplainResponse is the GET /v1/trajectories/{id}/explain body: the cleaning
// explain report collected when the trajectory was cleaned, labeled with the
// graph the server stores. The report describes the graph that was built:
// for a clean or batch, the graph of Build with Quotient, whose forward phase
// drops dead TL entries by lookahead and so builds no more nodes at any step
// than Algorithm 1; for a stream smooth, Algorithm 1's graph. The sum of its
// per-step NodesFinal is that graph's node count. Nodes and Edges count the
// stored quotient, which keeps one node per distinct future, so Nodes is at
// most that sum, and the sum over Nodes is the merge factor.
type ExplainResponse struct {
	ID         string `json:"id"`
	Deployment string `json:"deployment"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	// Explain is the report: per-phase wall times, per-timestamp candidate
	// counts before/after pruning, per-constraint prune counters, removal
	// tallies and the conditioning normalizer.
	Explain *rfidclean.Explain `json:"explain"`
}

func (s *Server) handleExplain(w http.ResponseWriter, traj *trajectory) {
	ex := traj.cleaned.Explain()
	if ex == nil {
		writeError(w, http.StatusNotFound, "trajectory %q has no explain report", traj.id)
		return
	}
	st := traj.cleaned.Stats()
	writeJSON(w, http.StatusOK, ExplainResponse{
		ID: traj.id, Deployment: traj.depID,
		Nodes: st.Nodes, Edges: st.Edges,
		Explain: ex,
	})
}

// handleHealthz reports liveness plus store occupancy, cheap enough for a
// load balancer to poll.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.mu.RLock()
	deps := len(s.deployments)
	s.mu.RUnlock()
	count, bytes := s.store.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"deployments":  deps,
		"trajectories": count,
		"storeBytes":   bytes,
		"sessions":     s.sessions.count(),
	})
}

// LocationProb is one entry of a distribution, labeled with the location
// name.
type LocationProb struct {
	Location string  `json:"location"`
	P        float64 `json:"p"`
}

func (s *Server) handleStay(w http.ResponseWriter, r *http.Request, traj *trajectory) {
	tau, err := strconv.Atoi(r.URL.Query().Get("t"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "missing or invalid ?t= timestamp")
		return
	}
	dist, err := traj.cleaned.StayDistribution(tau)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.store.chargePasses(traj)
	out := make([]LocationProb, 0)
	for loc, p := range dist {
		if p > 0 {
			out = append(out, LocationProb{Location: traj.cleaned.LocationName(loc), P: p})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P > out[j].P })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request, traj *trajectory) {
	pattern := r.URL.Query().Get("pattern")
	if pattern == "" {
		writeError(w, http.StatusBadRequest, "missing ?pattern=")
		return
	}
	p, err := traj.cleaned.Match(pattern)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"p": p})
}

// TopTrajectory is one entry of the top-k answer, rendered as location runs.
type TopTrajectory struct {
	P    float64  `json:"p"`
	Runs []string `json:"runs"` // "location x seconds"
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request, traj *trajectory) {
	k := 1
	if q := r.URL.Query().Get("k"); q != "" {
		var err error
		if k, err = strconv.Atoi(q); err != nil || k < 1 {
			writeError(w, http.StatusBadRequest, "invalid ?k=")
			return
		}
	}
	if k > 100 {
		k = 100
	}
	trajs, probs := traj.cleaned.TopK(k)
	out := make([]TopTrajectory, len(trajs))
	for i := range trajs {
		out[i] = TopTrajectory{P: probs[i], Runs: runs(traj.cleaned, trajs[i])}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleOccupancy(w http.ResponseWriter, traj *trajectory) {
	occ, err := traj.cleaned.ExpectedOccupancy()
	s.store.chargePasses(traj) // the passes are cached even when err != nil
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make([]LocationProb, 0)
	for loc, sec := range occ {
		if sec > 1e-9 {
			out = append(out, LocationProb{Location: traj.cleaned.LocationName(loc), P: sec})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].P > out[j].P })
	writeJSON(w, http.StatusOK, out)
}

// runs renders a trajectory as "location xN" segments.
func runs(c *rfidclean.Cleaned, locs []int) []string {
	var out []string
	start := 0
	for i := 1; i <= len(locs); i++ {
		if i == len(locs) || locs[i] != locs[start] {
			out = append(out, fmt.Sprintf("%s x%d", c.LocationName(locs[start]), i-start))
			start = i
		}
	}
	return out
}
